(** The effect vocabulary connecting process code to the engine.

    Process bodies are ordinary OCaml functions. Each atomic statement is
    announced by performing {!step} (or one of its wrappers in
    {!Shared}); the engine executes exactly one statement per scheduling
    decision, so the code between two performs runs atomically — this is
    what makes "quantum = statement count" exact.

    Invocation boundaries ({!invocation}) are not statements: they are
    the thinking/ready transitions of the paper's long-lived-object
    model. A process suspended at an invocation boundary is {e thinking}
    and has no enabled statement; the scheduler decides when it wakes. *)

val step : Op.t -> unit
(** Announce that the next atomic statement is about to execute.
    Everything up to the next perform runs atomically. Must only be
    called from code running under {!Engine.run}. *)

val local : string -> unit
(** [local l] is [step (Op.local l)]: a numbered statement that touches
    only private variables. *)

val invocation : string -> (unit -> 'a) -> 'a
(** [invocation label body] brackets [body] as one object invocation:
    the process transits thinking → ready before the first statement of
    [body] and ready → thinking after its last. *)

val stamp : unit -> int * int
(** [(processor, count)] — the calling process's processor and the
    number of statements executed {e on that processor} so far.
    Zero-cost (not a statement); the only instrumentation effect, used
    by history recorders to timestamp operation intervals.

    A process sees no global time (the paper's model, Sec. 2): the
    count covers its own processor only. That makes the value stable
    under partial-order reduction: statements on the same processor
    never commute (the scheduler's per-processor accounting orders
    them), and a statement on another processor never advances it, so
    it is invariant under every reordering of independent statements
    that DPOR considers equivalent. Two stamps are ordered only when
    they share a processor; history checkers must treat stamps on
    different processors as concurrent. *)

val set_priority : int -> unit
(** Change the calling process's priority (Sec. 5: dynamic priorities).
    Only legal between invocations — "a process's priority cannot change
    during an object invocation" — and zero-cost (priority management is
    the scheduler's business, not a shared-memory statement).
    @raise Invalid_argument if performed mid-invocation or if the level
    is outside [1..V]. *)

(**/**)

(* Exposed for the engine only. *)
type _ Effect.t +=
  | Step : Op.t -> unit Effect.t
  | Inv_begin : string -> unit Effect.t
  | Inv_end : string -> unit Effect.t
  | Stamp : (int * int) Effect.t
  | Set_priority : int -> unit Effect.t
