(** The execution engine.

    Implements the paper's model of program execution (Sec. 2) on top of
    OCaml effect handlers. Each process is a direct-style function; each
    atomic statement is announced by an {!Eff.step}; the engine executes
    exactly one statement per scheduling decision and enforces
    well-formedness:

    - {b Axiom 1} (priority scheduling): a statement of process [q] may
      execute only if no higher-priority process on [q]'s processor has
      an enabled statement (i.e. is ready mid-invocation).
    - {b Axiom 2} (quantum scheduling): if a process [p] was preempted —
      some other process on its processor executed a statement between
      two statements of [p]'s current invocation — then once [p] resumes,
      no equal-priority process on its processor may execute until [p]
      has executed [Q] statements or [p]'s invocation terminates. The
      first preemption of an invocation may occur at any point (the
      process's quantum alignment on entry is arbitrary, as in the
      lower-bound model of Sec. 4.1 / Appendix A).

    Processors interleave freely with respect to one another: any
    interleaving of statements across processors is schedulable, which
    models true multiprocessor parallelism at statement granularity.

    {b Domain-locality.} [run] allocates every piece of engine state —
    process cells, the trace, the current-process cursor — inside the
    call, and its effect handler is installed with [match_with] on the
    calling domain only (OCaml effects do not cross domains). Concurrent
    [run]s on different domains therefore never share engine state, which
    is what lets the exploration and certification layers fan whole runs
    out across a domain pool ([docs/PARALLELISM.md]); the one obligation
    on callers is that [programs] and the state they close over (e.g.
    {!Shared} stores) are freshly built per run and not shared between
    concurrent runs. *)

type stop_reason =
  | All_finished
  | Policy_stopped  (** The policy returned [None]. *)
  | Step_limit  (** The statement budget ([step_limit]) was exhausted. *)
  | Decision_limit
      (** The scheduling-decision budget (4x [step_limit]) was exhausted
          before the statement budget — the signature of a process
          spinning on statement-free (empty) invocations, which
          [step_limit] alone cannot see. Reported distinctly so
          downstream tooling can tell a long computation ([Step_limit])
          from a statement-free livelock. *)
  | All_halted
      (** Every legally runnable process is a parked crash victim
          ([crashes]): only crashed processes (and processes they block)
          remain — the fault-injection analogue of [Policy_stopped]. *)

type result = {
  trace : Trace.t;
  finished : bool array;  (** Indexed by pid. *)
  own_steps : int array;  (** Statements executed, per pid. *)
  halted : bool array;
      (** Unfinished crash victims parked at the end of the run (all
          [false] without [crashes]). *)
  stop : stop_reason;
}

val run :
  ?step_limit:int ->
  ?cost:(step:int -> Proc.pid -> Op.t -> int) ->
  ?crashes:(Proc.pid * int) list ->
  ?axiom2_active:(step:int -> bool) ->
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  result
(** [run ~config ~policy programs] executes [programs.(pid)] for each
    process of [config] under [policy]. [step_limit] (default 1_000_000)
    bounds total statements ([Step_limit]); the engine additionally
    bounds scheduling decisions at four times the statement budget, so a
    process looping on statement-free (empty) invocations — which
    [step_limit] alone cannot see — still terminates the run, with
    [Decision_limit].

    The scheduling hot path is incremental: ready-level counts, quantum
    guards, preemption stamps and a live-process list make each decision
    one allocation-light pass over unfinished processes instead of a
    quadratic rescan (see docs/ARCHITECTURE.md). The {!Policy.view}
    handed to the policy is one record per run, updated in place: it is
    valid only for the duration of that call and must not be retained
    (the [pview] records its [proc] returns are immutable and safe to
    keep).

    On top of that, {e forced} decisions are batched into quantum
    bursts. There is one decision loop and one statement transition;
    when the schedulable set is provably the singleton [{p}] — [p] is
    the last unfinished process ({e solo}), or the only live process at
    the top live level of its processor ({e singleton level}), or holds
    an active Axiom-2 quantum guarantee that together with Axiom 1
    silences every other candidate ({e guarantee}) — and the policy
    declares the forced-choice contract ([Policy.burst_safe]), the loop
    takes [p] without rebuilding views or consulting the policy (the
    run's first decision included), and the statement handler keeps
    executing [p]'s statements inline until forcedness can lapse
    (guarantee drained, invocation ended, priority changed, limits
    near). Unforced decisions are cheap too: the schedulable list is
    cached and reused across decisions, invalidated by a version counter
    that only membership-changing transitions bump (a statement that
    leaves its process Ready bumps nothing, and a matched guarantee
    grant/drain restores the version); the view record is reused, and a
    process's [pview] is rebuilt only when the policy reads it after it
    changed. Batching is disabled wholesale when [cost], [crashes] or
    [axiom2_active] is supplied; it and the list cache are pure
    optimizations — traces, counters and stop reasons are byte-identical
    to the naive reference interpreter in test/reference, which the
    differential suite in test/test_burst.ml checks (see
    docs/ARCHITECTURE.md).

    [cost ~step pid op] chooses the duration in time units of [pid]'s
    statement [op], executed when [step] statements have run, clamped to
    the configuration's [tmin..tmax] (default: every statement costs
    [tmin]). In the time model the quantum guarantee of Axiom 2 protects
    [Q] time units rather than [Q] statements, so an adversarial [cost]
    of [tmax] shrinks the number of protected statements — the Tmax/Tmin
    structure of Table 1.

    [crashes] lists the [(victim, after)] crash points behind
    {!Hwf_faults.Inject} (the paper's halting failures, Sec. 2; a victim
    listed twice crashes at the smaller [after]). An unfinished victim
    that has executed at least [after] own statements and holds no
    active quantum guarantee is {e parked}: withheld from the policy's
    choices for the rest of the run while still taking part in the
    Axiom 1/2 blocking rules — a crash is the scheduler never allocating
    the process another quantum, not the process vanishing. A guarantee
    drains before its holder parks. When only parked processes remain
    runnable, the run stops with [All_halted].

    [axiom2_active] gates enforcement of the Axiom 2 quantum guarantee
    per scheduling step (given the global statement count): while it
    returns [false], same-level processes may run despite another's
    active guarantee. Gate flips are recorded as {!Trace.Axiom2_gate}
    events so {!Wellformed.check} judges the trace against the weakened
    scheduler rather than reporting spurious quantum violations.
    Bookkeeping (pending flags, guarantee draining) continues while the
    gate is off. This models a scheduler that intermittently violates
    Axiom 2 — the paper's Sec. 2 degradation, used as a fault plan and
    as the negative control of the wait-freedom certifier.

    [sink] is installed on the run's trace ({!Trace.set_sink}) before
    any process is launched, so it sees every event in append order,
    and removed again on {e every} exit path — normal return,
    process-body exception, policy misbehaviour — so a reused
    [trace_buf] can never leak one run's sink into the next. It is the
    engine's one observation hook, the entry point of the observability
    layer ({!Hwf_obs.Metrics.sink} adapts a collector). Statement
    events arrive as plain arguments, so observing one allocates
    nothing; when no sink is supplied the trace's sinks are no-ops.

    [trace_buf] makes the run record into a caller-supplied trace
    ({!Trace.reset} is applied first) instead of allocating a fresh one
    — the scratch-arena hook that lets an exploration worker reuse one
    event buffer across thousands of runs. The caller promises the
    previous run's [result.trace] is dead by the time it passes the
    buffer again; the explorer severs the reference when a trace escapes
    inside a counterexample. The buffer must be configured for the same
    process count.

    @raise Invalid_argument if the program count differs from the process
    count, if a crash victim is not a pid of [config], if [trace_buf] is
    configured for a different process count, or if the policy chooses
    a process outside the schedulable set.
    Exceptions raised by process bodies or by the policy propagate
    ([Stdlib.Exit] included), after the suspended processes are
    discontinued. *)
