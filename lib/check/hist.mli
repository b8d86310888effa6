(** Concurrent-history recording for linearizability checking.

    Process code wraps each high-level operation with {!wrap}; the
    recorder timestamps the operation's interval in {e per-processor}
    statement counts (via {!Hwf_sim.Eff.stamp}, which costs no
    statements) and stores the operation descriptor and its observed
    result.

    Per-processor timestamps order two operations only when they ran on
    the same processor; cross-processor intervals are incomparable and a
    checker must treat them as concurrent. This is deliberately weaker
    than the real-time order of the run — and exactly as strong as what
    survives partial-order reduction: the explorer's pruning
    ({!Hwf_adversary.Explore}) commutes independent statements of
    different processors, which preserves every per-processor count, so
    a recorded run stays prunable. On a uniprocessor the order is the
    run's real-time order (one processor's count {e is} the run's
    statement count). *)

type ('op, 'r) entry = {
  pid : int;
  op : 'op;
  result : 'r;
  proc : int;  (** Processor the operation ran on. *)
  t0 : int;  (** [proc]'s statement count just before the first statement. *)
  t1 : int;  (** [proc]'s statement count just after the last statement. *)
}

type ('op, 'r) t

val create : unit -> ('op, 'r) t

val wrap : ('op, 'r) t -> pid:int -> 'op -> (unit -> 'r) -> 'r
(** [wrap h ~pid op f] registers the operation as started, runs [f ()],
    records the completed operation and returns its result. Must run
    inside the simulator. *)

val entries : ('op, 'r) t -> ('op, 'r) entry list
(** In completion order. Harness use (after the run). *)

val pending : ('op, 'r) t -> (int * 'op * int * int) list
(** [(pid, op, proc, t0)] for operations begun by {!wrap} but never
    completed — the process crashed or was parked mid-operation. Their
    effects may or may not be visible to other processes, so a
    linearizability checker must treat each as optionally taking effect
    anywhere after [t0] (see {!Lincheck.check_with_pending}). In start
    order. *)

val pp :
  op:'op Fmt.t -> result:'r Fmt.t -> ('op, 'r) t Fmt.t
