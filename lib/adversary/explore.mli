(** Stateless model checking of simulator programs.

    Explores the tree of scheduler decisions by re-execution (one-shot
    continuations cannot be forked, so each path is replayed from
    scratch, CHESS-style). Every explored trace is additionally passed
    through {!Hwf_sim.Wellformed}, so an engine bug surfaces as a
    counterexample rather than silently shrinking the schedule space.

    Exploration is optionally {e context-bounded}: scheduling decisions
    that continue the process that executed the previous statement (or
    switch away from a process that cannot continue) are free, while
    genuine preemptions consume a budget. With an unlimited budget the
    search is exhaustive over all well-formed schedules; with a small
    budget it covers exactly the schedules the paper's arguments reason
    about (at most one quantum preemption per short code sequence) plus
    a margin.

    {2 One search driver}

    Every search ({!explore} at any [jobs], [grain] or checkpoint, and
    {!iter_schedules}) runs one {e probe} (the all-defaults schedule,
    which fixes the top-level width and the clock taint), then one
    {e subtree cell} per top-level candidate on the domain pool (inline
    at [jobs = 1]), merged in DFS order. The probe is subtree 0's first
    run. {!sample} shares the pool and the merge, one cell per run; a
    checkpoint journals finished cells and restores them on resume.

    {2 Sleep-set pruning and source sets}

    The search applies {e sleep-set pruning} (dynamic partial-order
    reduction) by default. Within one processor no reduction is
    possible: every statement advances the scheduler's preemption
    accounting (pending flags, quantum guarantees) of every other
    process on its processor, so even statements on disjoint variables
    do not commute — uniprocessor scenarios are explored in full,
    bit-identically to [~dpor:false]. {e Across} processors the
    scheduler state is disjoint by construction, so two transitions of
    processes on different processors commute exactly when their data
    footprints do not conflict (same shared variable, at least one
    write — the baseline {!Hwf_sim.Policy.independent}). The explorer
    computes that relation per decision point from the policy view
    ([next_op]), carries a sleep set down each path (recomputed from
    the decision prefix alone, so pruning is oblivious to [jobs],
    [grain] and checkpoint/resume), and skips sibling branches whose
    first transition is slept — their interleavings are covered by the
    sibling that put them to sleep.

    {e Source-set refinement}: sleeping is not closed under "something
    must run", so a DFS prefix can reach a decision point whose every
    candidate is slept. Each candidate's next transition is then
    covered by a DFS-earlier sibling subtree, and (inductively) so is
    every completion of the prefix — the prefix is a {e sleep-set
    blocked} schedule in Abdulla et al.'s sense. The search discards it
    without a verdict check (counted as a {!stats_source_prunes}
    prune), where it previously fell back to re-exploring a covered
    schedule. Blocked prefixes are the exact gap between plain sleep
    sets and source-set optimality: with them discarded, every
    completed run the search performs sits in a distinct Mazurkiewicz
    class.

    {e Stronger relations}: [explore ?relation] accepts an independence
    judgement stronger than the footprint baseline — in practice the
    statically-derived oracle of [Hwf_lint.Indep], which additionally
    commutes same-variable RMW pairs proven result-insensitive (e.g.
    two fetch&adds whose return values steer no branch). The relation's
    name is part of the checkpoint campaign identity, since run counts
    depend on it.

    Validity boundary: the relation assumes programs observe nothing
    global outside their {!Hwf_sim.Shared} footprints. The one such
    door is [Eff.now] (the global statement clock): if the probe run
    reads it, pruning is silently disarmed for the whole search; if a
    {e later} schedule is the first to read it, the search raises
    [Invalid_argument] telling you to pass [~dpor:false] — it cannot
    miss that schedule, because a pruned schedule executes the same
    per-process statement sequences as the explored schedule covering
    it. [Eff.stamp] (the per-processor timestamp pair) is {e not} such
    a door and does not taint: same-processor transitions never
    commute, so per-processor statement counts are invariant under
    every commutation the pruning performs — history recorders
    ({!Hwf_check.Hist}) use it precisely so linearizability scenarios
    stay prunable. Pruning is also disarmed under a [preemption_bound]
    (the restricted candidate lists break the sleep-set invariant) and
    for configurations wider than 62 processes (the sleep set is a pid
    bitmask). Context bounding remains the reduction of choice for
    uniprocessor scenarios; sleep sets are the multiprocessor one, and
    the two are never armed together. *)

type instance = {
  programs : (unit -> unit) array;
  check : Hwf_sim.Engine.result -> (unit, string) result;
      (** Verdict on one complete run; [Error msg] is a counterexample. *)
}

type scenario = {
  name : string;
  config : Hwf_sim.Config.t;
  make : unit -> instance;
      (** Must build fresh shared state and closures on every call:
          runs are replayed from scratch. *)
}

type counterexample = {
  message : string;
  trace : Hwf_sim.Trace.t;
  decisions : Hwf_sim.Proc.pid list;  (** The schedule that failed. *)
}

type outcome = {
  runs : int;
  exhaustive : bool;
      (** True if the search space was fully covered within the bounds
          (with pruning: covered up to commutation of independent
          transitions, which preserves every verdict). *)
  counterexample : counterexample option;
  coverage : Hwf_resil.Resil.coverage;
      (** Harness-level accounting (see [docs/ROBUSTNESS.md]), one cell
          per top-level subtree ({!sample}: per run), so an interrupted,
          timed-out or degraded search is visibly partial. *)
}

type stats
(** Search-layer counters for the observability layer: engine runs per
    top-level scheduling choice (subtree sizes), sibling branches
    skipped by sleep-set pruning, blocked prefixes discarded by source
    sets, plus the domain pool's occupancy counters. Off by default —
    without a [?stats] argument nothing is counted. The per-root run
    counts and the prune counts are deterministic whenever the search
    completes; the pool counters depend on domain racing and are
    display-only (never exported to JSONL). *)

type relation = { rname : string; rel : Hwf_sim.Policy.relation }
(** A named independence relation for the pruning. The name is part of
    the checkpoint campaign identity (run counts depend on the
    relation, so a journal written under one relation cannot seed a
    resume under another). The relation must be sound: [rel a b = true]
    only when executing [a] and [b] in either order yields the same
    engine state and downstream behaviour. *)

val base_relation : relation
(** The footprint baseline {!Hwf_sim.Policy.independent}, named
    ["base"]. *)

val make_stats : ?jobs:int -> scenario -> stats
(** [jobs] sizes the pool's per-worker histogram (default
    {!Hwf_par.Pool.default_jobs}); the subtree histogram is sized by the
    scenario's process count. *)

val stats_subtree_runs : stats -> int array
(** Runs performed per top-level choice index — the subtree sizes of the
    parallel fan-out (index 0 includes the probe run). *)

val stats_pruned : stats -> int
(** Sibling branches skipped because their first transition was slept —
    each skip is a whole subtree the pruned search did not have to
    enumerate. Zero on uniprocessor scenarios and with [~dpor:false]. *)

val stats_source_prunes : stats -> int
(** Sleep-set blocked prefixes discarded by the source-set refinement:
    runs that reached a decision point with every candidate slept and
    were abandoned without a verdict check. Zero on uniprocessor
    scenarios and with [~dpor:false]. *)

val stats_sampled : stats -> int
(** Engine runs performed by {!sample} — the sampling analogue of the
    subtree run counts. With [jobs > 1] it can exceed the outcome's
    [runs], since cells racing ahead of the first failure still run. *)

val stats_pool : stats -> Hwf_par.Pool.stats

val explore :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_depth:int ->
  ?step_limit:int ->
  ?on_step_limit:[ `Fail | `Ignore ] ->
  ?jobs:int ->
  ?grain:int ->
  ?dpor:bool ->
  ?relation:relation ->
  ?stats:stats ->
  ?cell_wall_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  scenario ->
  outcome
(** DFS over schedules. [preemption_bound] (default unlimited) caps paid
    context switches per schedule; [max_runs] (default 200_000) and
    [max_depth] (default 10_000 decisions) bound the search; runs hitting
    [step_limit] (default 100_000 statements) are treated per
    [on_step_limit] (default [`Fail] — suitable for wait-free algorithms,
    which must terminate under every schedule).

    [dpor] (default [true]) arms sleep-set pruning with the source-set
    refinement — see the module preamble for semantics, the cases where
    it silently disarms itself, and the soundness argument. [relation]
    (default {!base_relation}) substitutes a stronger independence
    judgement (see [Hwf_lint.Indep]). Verdicts, counterexamples and
    exhaustiveness are unchanged by pruning; [runs] shrinks on
    multiprocessor scenarios (the cross-check is regression-tested and
    part of the E17 campaign). [runs] counts verdict-checked schedules;
    prefixes discarded as sleep-set blocked are reported through
    {!stats_source_prunes} instead.

    [jobs] (default 1) is the number of domains the subtree cells are
    spread over. Whenever the search completes within [max_runs] the
    outcome — run count, exhaustiveness, the first counterexample with
    its decision path, and the prune counters — is the same at every
    [jobs] and [grain]; [scenario.make] must therefore be domain-safe
    (fresh state per call — see [docs/PARALLELISM.md]). [grain] sets
    the pool's cells-per-claim (default automatic: 1 for these coarse
    cells; the knob matters for {!sample}). The [max_runs] budget is
    claimed from one atomic counter, one claim per engine run (the
    probe included), so the runs across all domains never exceed
    [max_runs]. A truncated search reports [exhaustive = false]; its
    cut point is the DFS order's at [jobs = 1] and depends on how the
    domains raced at [jobs > 1] (and so may [runs]).

    Without a checkpoint an exception escaping a subtree (a bug in a
    process body, a latent clock read) propagates, lowest subtree
    first. With one, the cell is contained as an errored cell and the
    outcome's coverage reports it ([docs/ROBUSTNESS.md]).

    Resilience (see [docs/ROBUSTNESS.md]): [checkpoint] journals each
    completed subtree cell to an [hwf-ckpt/1] file; a clean completed
    campaign merges to the outcome without a checkpoint, run for run,
    and the journal stays per subtree at every [grain]. With
    [resume = true] journaled subtrees are restored instead of re-run —
    their run counts re-seed the [max_runs] budget and a restored
    counterexample's trace is rebuilt by replaying its decisions — and
    the journal must match the campaign (same scenario name, search
    bounds, and armed [dpor]) or the call raises [Invalid_argument].
    [cell_wall_s] gives each subtree a wall-clock budget; an expired
    subtree is {e demoted} (retired with a partial, non-exhaustive
    result) rather than hung. [should_stop] (polled between runs, ORed
    with {!Hwf_resil.Resil.interrupted}) stops the search cooperatively;
    cells cut short by it are not journaled, so a resume re-runs them
    in full. *)

val iter_schedules :
  ?preemption_bound:int ->
  ?max_runs:int ->
  ?max_depth:int ->
  ?step_limit:int ->
  scenario ->
  f:(pids:Hwf_sim.Proc.pid list -> Hwf_sim.Engine.result -> [ `Continue | `Stop ]) ->
  int
(** The search driver of {!explore} with a caller-supplied verdict:
    enumerates schedules in the same DFS order, through the same probe
    and subtree cells, and hands each completed run (with its decision
    path) to [f]; [`Stop] ends the search. Returns the number of runs
    performed. Always one domain ([f] may be stateful), never
    checkpointed, and deliberately unpruned: its caller ({!Bivalence})
    reasons about the full schedule enumeration. *)

val run_seed : int -> int -> int
(** [run_seed seed i] is the seed of run [i] of sampling campaign
    [seed] ({!Randsched.mix}): a splitmix-style hash, so adjacent
    campaign seeds share no per-run streams. Exposed for tests. *)

val sample :
  ?runs:int ->
  ?step_limit:int ->
  ?on_step_limit:[ `Fail | `Ignore ] ->
  ?jobs:int ->
  ?grain:int ->
  ?stats:stats ->
  ?runner:
    (step_limit:int -> policy:Hwf_sim.Policy.t -> instance -> Hwf_sim.Engine.result) ->
  strategy:Randsched.strategy ->
  seed:int ->
  scenario ->
  outcome
(** Volume testing with seeded randomized schedules — the statistical
    complement to [explore] for configurations too large to enumerate,
    parametric in the {!Randsched.strategy} (docs/SAMPLING.md). Run [i]
    uses seed [run_seed seed i], so every run is an independent cell of
    the same pool-and-merge driver {!explore} uses: the reported
    counterexample is the lowest-index failure, with the same [runs]
    count, byte-identical across [jobs]/[grain]; cells after a known
    failure are skipped. These cells are micro-cells (one engine run
    each), so [grain] matters here: the default chunks hundreds of runs
    per claim ([docs/PARALLELISM.md] has the tuning guide).

    [outcome.runs] is the number of schedules to the first bug when a
    counterexample is reported ({!stf_ci} turns it into an interval),
    and the full budget otherwise; [exhaustive] is always false. The
    counterexample carries the recorded decision schedule, so it replays
    and shrinks through {!Schedule}/{!Shrink} exactly like an [explore]
    counterexample.

    PCT's horizon and SURW's per-pid statement profile are estimated by
    one deterministic round-robin pilot run before the cells (pure
    function of the scenario, so determinism across [jobs] holds).

    [runner] substitutes the engine invocation (e.g. routing through
    [Hwf_faults.Inject.run] with a fault plan); it must execute
    [instance.programs] under exactly the given policy and step limit,
    freshly per call. Default: a plain [Engine.run] with per-worker
    scratch traces. *)

val stf_ci : ?level:float -> outcome -> float * float
(** Exact confidence interval (default [level] 0.95) on the expected
    schedules-to-first-bug implied by a {!sample} outcome, from the
    geometric likelihood of the observation. First bug at run [k]:
    two-sided interval around [k]; no bug in [n] runs: one-sided
    [(lo, infinity)] ("rule of three"). *)

val pp_outcome : outcome Fmt.t
