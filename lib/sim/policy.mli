(** Scheduling policies.

    All nondeterminism in a run flows through one policy: at each step the
    engine computes the set of processes that may legally execute the next
    atomic statement (per Axiom 1, Axiom 2 and the thinking/ready rules)
    and the policy picks one, or stops the run.

    Waking a thinking process is fused with running its first statement:
    a ready-but-never-scheduled process is observationally equivalent to
    one that is still thinking, except that a ready higher-priority
    process blocks lower ones — which is exactly the behaviour obtained
    by waking it at the moment it first runs. This keeps the decision
    space one-dimensional, which the model checker exploits.

    The scheduler may legally starve any process ("a scheduler on some
    processor may choose to never allocate a quantum to some ready
    process" — Sec. 2); a policy models this simply by never picking it. *)

type phase = Thinking | Ready | Finished

type pview = {
  pid : Proc.pid;
  processor : int;
  priority : int;
  phase : phase;
  next_op : Op.t option;  (** The statement that would execute next, when ready. *)
  own_steps : int;  (** Statements executed so far. *)
  inv_steps : int;  (** Statements executed in the current invocation. *)
  inv : int;  (** Invocations begun so far. *)
  guarantee : int;  (** Remaining statements of quantum protection. *)
  pending : bool;  (** Was preempted since its last statement. *)
}

type view = {
  mutable step : int;  (** Global statement count so far. *)
  mutable runnable : Proc.pid list;  (** Legal choices, ascending pid order. *)
  nprocs : int;  (** Number of processes; pids are [0 .. nprocs - 1]. *)
  proc : Proc.pid -> pview;
      (** [proc pid] is [pid]'s view at this decision. {!Engine.run}
          keeps one [view] record per run, updates [step] and
          [runnable] in place before each call, and builds a process's
          [pview] only when [proc] asks for it: read the view freely
          during [choose], but do not retain the record or call [proc]
          after the call returns. The [pview] records are immutable and
          safe to keep, and the engine returns a new record only when
          that process's view changed: a physically unchanged [proc pid]
          is an unchanged view. [Hwf_adversary.Explore] caches
          footprints on that identity. *)
}

val view : step:int -> runnable:Proc.pid list -> pview array -> view
(** A view over a fixed array of process views, indexed by pid (the
    reference interpreter, recorders, tests). *)

type t = { name : string; burst_safe : bool; make : unit -> view -> Proc.pid option }
(** A policy is a {e factory}: [make ()] instantiates the per-run
    decision function, with any policy state ([round_robin]'s cursor,
    [random]'s RNG, [scripted]'s remaining script) created fresh inside
    that call. {!Engine.run} calls [make] exactly once per run, so one
    [t] value may be reused across any number of runs — each run sees
    virgin state and identical seeds replay identical schedules.

    [burst_safe] declares the {e forced-choice contract}: whenever the
    runnable set is a singleton [[p]], the decision function returns
    [Some p] {e and} the call has no observable effect — no cursor
    advance, no RNG draw, no script consumption, no recording. The
    engine's quantum-burst batching ({!Engine.run}) relies on this to
    skip policy consultation entirely on forced decisions; a policy that
    misdeclares it will see a different decision stream under batching.
    [false] is always sound (it only disables the optimization), and is
    the default for {!of_fun}/{!of_factory}. *)

val of_fun : ?burst_safe:bool -> string -> (view -> Proc.pid option) -> t
(** Wrap a {e stateless} decision function: every run shares [choose].
    If the closure carries mutable state, use {!of_factory} instead —
    [of_fun] would leak that state across runs. [burst_safe] (default
    [false]) asserts the forced-choice contract documented on {!t}. *)

val of_factory : ?burst_safe:bool -> string -> (unit -> view -> Proc.pid option) -> t
(** Wrap a per-run decision-function factory. [make] is invoked once at
    the start of each {!Engine.run}; allocate all mutable policy state
    inside it. [burst_safe] (default [false]) asserts the forced-choice
    contract documented on {!t}. *)

val prepare : t -> view -> Proc.pid option
(** [prepare t] instantiates one run's decision function ([t.make ()]).
    Harness code that drives a policy outside {!Engine.run} (recorders,
    wrappers) should call this once per run and reuse the result, never
    per decision. *)

val round_robin : unit -> t
(** Cycles fairly through runnable processes in pid order; wakes thinking
    processes eagerly. Every process makes progress — a "fair" scheduler
    in the Sec. 5 sense. The cursor is per-run state: reusing the value
    across runs is safe. Burst-safe: a forced (singleton) choice does
    not advance the cursor. *)

val random : seed:int -> t
(** Picks uniformly among runnable processes. Deterministic per seed,
    with a fresh RNG per run: the same value replays the same schedule
    on every run. Burst-safe: a forced (singleton) choice draws nothing
    from the RNG — only genuine decisions consume the stream. *)

val scripted : ?fallback:t -> Proc.pid list -> t
(** Follows the given pid sequence, skipping entries that are not
    currently runnable only if a [fallback] is given (otherwise such an
    entry stops the run). When the script is exhausted, defers to
    [fallback], or stops. The adversarial constructions of Sec. 4.1 are
    expressed as scripts. The script position is per-run state. *)

val first : t
(** Always the lowest-pid runnable process. Deterministic baseline. *)

val highest_pid : t
(** Always the highest-pid runnable process — handy for "let the writer
    finish first" test setups. *)

val by_priority : t
(** Runs the runnable process with the highest current priority (ties by
    lowest pid), waking thinking processes eagerly — the shape of a real
    RTOS dispatcher. *)

val prefer : Proc.pid list -> fallback:t -> t
(** Picks the first process of [pids] (in order) that is runnable;
    otherwise defers to [fallback]. The building block for targeted
    starvation and ordering scenarios. *)

(** {2 Data footprints}

    What a candidate's next statement would touch, as visible through
    the policy view. Two candidates are {e independent} when executing
    them in either order yields the same engine state: they must be on
    different processors (same-processor order feeds the Axiom 1/2
    scheduler state) and their next statements must not conflict on a
    shared variable. Anything not fully visible — a thinking process,
    an unknown next op — is conservatively dependent. Used by the
    sleep-set pruning in [Hwf_adversary.Explore] and the partial-order
    sampling strategy in [Hwf_adversary.Randsched]. *)

type footprint = {
  fpid : Proc.pid;
  fproc : int;  (** Processor. *)
  fvar : string option;  (** Shared variable touched next, if any. *)
  fwrite : bool;
  fknown : bool;  (** Footprint known? unknown => conservatively dependent. *)
  fop : Op.t option;  (** The next statement itself, when known — richer
      relations (commuting RMWs) need the operation, not just the
      variable/write summary. *)
}

val footprint : view -> Proc.pid -> footprint
(** Footprint of one candidate at the current decision point.
    [footprint view pid] reads only [view.proc pid], so it is a
    function of that one immutable record. *)

type relation = footprint -> footprint -> bool
(** An independence judgement: [r a b = true] claims executing [a] and
    [b] in either order yields the same engine state {e and} the same
    downstream behaviour. Must be symmetric and [false] whenever in
    doubt. {!independent} is the baseline; [Hwf_lint.Indep] derives
    stronger (still sound) relations from static analysis. *)

val independent : footprint -> footprint -> bool
(** Sound baseline independence judgement over two footprints ([false]
    when in doubt): different processors and no same-variable conflict
    (same shared variable with at least one write). *)
