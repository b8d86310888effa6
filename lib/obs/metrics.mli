(** Run metrics: the measured quantities behind the paper's bounds.

    A {!t} aggregates one engine run into the numbers the paper's
    arguments reason about — per-process statement counts and
    cost-weighted time, per-invocation latency, preemption counts split
    same-priority vs higher-priority (so Axiom 2's rationing and
    Axiom 1's free preemptions are separately visible), quantum
    utilization (protected statements actually used per granted
    guarantee), and priority-change churn (Sec. 5 dynamic priorities).

    Collection is {e incremental}: a {!collector}'s {!sink} is designed
    to sit behind the trace's observation hook ({!Hwf_sim.Engine.run}'s
    [sink] / {!Hwf_sim.Trace.set_sink}), so metrics accrue while the
    engine runs and cost nothing when no sink is configured.
    {!of_trace} replays a recorded trace through the same collector, and
    is guaranteed to produce the same result as collecting live.

    A {e preemption} of an invocation is a maximal gap between two of
    its statements in which other processes on the same processor
    executed; it is classified by the highest priority that ran during
    the gap relative to the preempted process's (dynamic) priority.
    With [Q] at least an invocation's length, the most same-level
    preemptions of any invocation is at most 1 (Theorem 1/2). The
    quantum accounting mirrors the engine's Axiom 2 bookkeeping
    (guarantee granted on resume after a preemption, reset on invocation
    end and on Axiom-2 re-activation).

    Measured-vs-bound rows ({!bound_row}, attached with {!with_bounds})
    carry the Lemma 2/3 access-failure margins; harness counters
    ({!with_harness}) carry search-layer statistics (runs, subtree
    sizes). Both are filled by the harness that owns the run — see
    [docs/OBSERVABILITY.md] for the symbol mapping. *)

open Hwf_sim

type inv_stat = {
  pid : Proc.pid;
  inv : int;
  label : string;
  statements : int;  (** Latency in statements. *)
  time : int;  (** Latency in cost-weighted time units. *)
  same_preemptions : int;
  higher_preemptions : int;
  completed : bool;
}

type pid_stat = {
  statements : int;
  time : int;
  invocations : int;
  completed : int;
  same_preemptions : int;  (** The preemptions Axiom 2 rations. *)
  higher_preemptions : int;  (** The preemptions Axiom 1 permits freely. *)
  priority_changes : int;  (** [Set_priority] events (Sec. 5 churn). *)
  guarantee_grants : int;  (** Quantum guarantees granted on resume. *)
  protected_statements : int;
      (** Statements executed while holding a positive guarantee. *)
}

type bound_row = {
  name : string;
  measured : int;
  bound : int option;  (** [None]: counter reported without a bound. *)
}

type t = {
  n : int;
  quantum : int;
  statements : int;
  time : int;
  switches : int;
  per_pid : pid_stat array;
  invocations : inv_stat list;  (** In close order; still-open ones last, by pid. *)
  bounds : bound_row list;
  harness : (string * int) list;
}

val margin : bound_row -> int option
(** [bound - measured]; non-negative iff the bound holds. *)

val with_bounds : t -> bound_row list -> t
val with_harness : t -> (string * int) list -> t

type collector

val collector : Config.t -> collector

val sink : collector -> Trace.sink
(** The collector as a {!Hwf_sim.Trace.sink}: its statement callback
    takes the event fields directly, so the engine's hot path feeds this
    collector without materializing a [Trace.Stmt] record per statement.
    Pass as {!Hwf_sim.Engine.run}'s [sink]. *)

val finish : collector -> t
(** Close any still-open invocations (as incomplete) and freeze. *)

val of_trace : Trace.t -> t
(** [finish] of a fresh collector fed every event of the trace — equal
    to live collection of the same run. *)

val quantum_utilization : t -> Proc.pid -> float option
(** [protected_statements / (guarantee_grants * quantum)]; [None] when
    no guarantee was ever granted (or [quantum = 0]). *)

val pp : t Fmt.t
(** The pretty metrics table printed by [hybridsim stats]. *)
