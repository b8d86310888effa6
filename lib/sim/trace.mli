(** Execution histories.

    A trace is the machine-readable form of the paper's notion of a
    history: the sequence of atomic statement executions, interleaved
    with invocation boundaries. Traces are the input
    to the well-formedness checker ({!Wellformed}), the interleaving
    renderer ({!Render}) and the linearizability checker.

    {b Representation.} Events are stored packed: one flat int array of
    variable-stride records (tag + pid in a header word, int payloads).
    Ops go into a run-length side table — a statement whose op equals
    the previous statement's op reuses its id, any other op gets a new
    one, with no hashing — and labels into an intern table. The {!event}
    records handed out by {!iter}/{!fold}/{!events} are decoded lazily,
    on the walk; a decoded op is structurally equal to the appended one.
    Appending a statement ({!add_stmt}) is a handful of int stores and
    at most one push into the op table, with no event allocation. The
    encoding is an internal detail — the event-level API is unchanged
    and decode order is append order. *)

type event =
  | Stmt of { idx : int; pid : Proc.pid; op : Op.t; inv : int; cost : int }
      (** The [idx]-th statement of the run, executed by [pid] as part of
          its [inv]-th invocation (0-based). [cost] is the statement's
          duration in time units, in [tmin..tmax] (1 in the pure
          statement-count model). *)
  | Inv_begin of { pid : Proc.pid; inv : int; label : string }
  | Inv_end of { pid : Proc.pid; inv : int; label : string }
  | Set_priority of { pid : Proc.pid; priority : int }
      (** The process changed its own priority between invocations
          (Sec. 5: dynamic priorities). *)
  | Axiom2_gate of { at : int; active : bool }
      (** Fault injection toggled enforcement of the Axiom 2 quantum
          guarantee at statement index [at] ({!Engine.run}'s
          [axiom2_active] hook). Recorded so a trace remains
          self-describing: {!Wellformed.check} suspends its quantum
          checks while the gate is off. Absent in unfaulted runs. *)

type stmt_sink = idx:int -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit
(** Allocation-free entry point for statement events: the fields arrive
    as arguments (all immediates plus the appended op pointer), so
    observing a statement allocates nothing. *)

type sink = {
  on_stmt : stmt_sink;  (** Every statement, in append order. *)
  on_event : event -> unit;  (** Every {e non-statement} event. *)
}
(** The trace's one observation hook, split per event class: the hot
    class (statements) bypasses event allocation entirely; the rare
    classes arrive as ordinary events. See {!Hwf_obs.Metrics.sink} for
    the canonical implementation. *)

type t

val create : Config.t -> t

val reset : t -> unit
(** Return the trace to its just-created state — no events, zero
    counters, no sink, an empty op table — while keeping the underlying
    packed buffer and table storage, so one trace can serve as a reusable per-worker
    scratch across many engine runs (see {!Engine.run}'s [trace_buf]).
    The configuration is retained: a reset trace is only valid for runs
    of the same configuration. *)

val config : t -> Config.t

val set_sink : t -> sink -> unit
(** Install a sink that sees every event as it is appended (after the
    trace's own bookkeeping), statements allocation-free (see {!sink}).
    At most one sink is active; installing replaces the previous one.
    When nothing is installed, the append path runs against no-op sinks
    — no option match, no event allocation. *)

val clear_sink : t -> unit
(** Remove the installed sink (a no-op when none is installed).
    {!Engine.run} installs and removes its sink symmetrically on every
    exit path, so a trace never escapes a run with a stale sink
    attached. *)

val add : t -> event -> unit

val add_stmt : t -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit
(** Append a statement event whose [idx] is the running statement count
    — the engine's hot path. Equivalent to
    [add t (Stmt { idx = statements t; pid; op; inv; cost })] but
    allocation-free: no event record is built, and an installed sink
    receives the fields as arguments. *)

val add_inv_begin : t -> pid:Proc.pid -> inv:int -> label:string -> unit

val add_inv_end : t -> pid:Proc.pid -> inv:int -> label:string -> unit

val events : t -> event list
(** A fresh list copy of the whole history — O(length) allocation. For
    a single pass prefer {!iter} or {!fold}, which walk the underlying
    vector without copying. *)

val iter : (event -> unit) -> t -> unit
(** [iter f t] applies [f] to every event in append order, without
    materializing a list. *)

val fold : ('acc -> event -> 'acc) -> 'acc -> t -> 'acc
(** [fold f acc t] folds over events in append order, without
    materializing a list. *)

val length : t -> int
(** Number of events (not statements). *)

val statements : t -> int
(** Number of statements executed. *)

val time : t -> int
(** Total time units consumed (equals [statements] when all costs are 1). *)

val own_statements : t -> Proc.pid -> int
(** Statements executed by [pid], maintained incrementally on {!add}
    (O(1), not a refold of the event vector).
    @raise Invalid_argument if [pid] is outside the configuration. *)

val pp_event : event Fmt.t

val pp : t Fmt.t
(** One event per line. *)
