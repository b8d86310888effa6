(** The wait-freedom certifier.

    Runs a {e subject} (an algorithm under a fixed machine shape, policy
    and theorem bound) against a battery of fault plans and judges every
    run on three counts:

    + {b survivors finish} — every non-victim process completes its
      program, unless a halted strictly-higher-priority victim on its
      processor permanently blocks it (the model's Axiom 1 caveat:
      a parked victim stays ready; such runs count as [blocked], not
      failures — the scheduler is starving the survivor, not the
      algorithm). Equal-priority survivors are never excused, because a
      victim's quantum guarantee drains before it parks.
    + {b bounded own work} — no process exceeds the subject's
      [step_bound] own statements: O(1) for Theorem 1, O(V) per
      operation for Theorem 2, O(L) for Theorem 4. Wait-freedom is a
      bound on {e own} steps, so it must hold regardless of crashes.
    + {b the subject's semantic check} — agreement/validity for
      consensus, linearizability for objects (pending operations of
      crashed processes handled by
      {!Hwf_check.Lincheck.check_with_pending}).

    Failing runs are minimized with {!Hwf_adversary.Shrink.shrink_by}
    over the recorded decision sequence — replay re-applies the same
    fault plan, so the shrunk schedule is a genuine counterexample of
    the faulted configuration — and reported with both the plan and the
    shrunk schedule. *)

open Hwf_sim
open Hwf_adversary

type instance = {
  programs : (unit -> unit) array;
  check : survivors:Proc.pid list -> Engine.result -> (unit, string) result;
      (** [survivors] lists the pids that finished; the check must only
          constrain those (a victim's operation may be half-applied). *)
}

type subject = {
  name : string;
  config : Config.t;
  policy : unit -> Policy.t;  (** Fresh policy per run (policies may be stateful). *)
  make : unit -> instance;  (** Fresh shared object + programs per run. *)
  step_bound : int;  (** Max own statements any process may execute. *)
  bound_desc : string;  (** e.g. ["8 (Thm 1, O(1))"] — shown in reports. *)
  step_limit : int;  (** Engine budget; hitting it is a failure. *)
}

type verdict = Pass of { blocked : bool } | Fail of string

type failure = {
  plan : Plan.t;
  message : string;
  schedule : Schedule.t;  (** Shrunk replay schedule. *)
  shrunk_from : int;  (** Decision count before shrinking. *)
}

type report = {
  subject : string;
  bound_desc : string;
  plans : int;
  passed : int;
  blocked : int;  (** Passing runs with victim-blocked survivors. *)
  worst_own_steps : int;  (** Max own statements seen across all runs. *)
  failures : failure list;
  coverage : Hwf_resil.Resil.coverage;
      (** Harness-level accounting: which cells were actually evaluated
          (vs timed out, errored or skipped on interrupt). A report with
          incomplete coverage is a {e partial} result — [passed] and
          [failures] only describe the evaluated cells. *)
}

val solo_own_steps : subject -> int array
(** Per-pid own statements of one unfaulted run — the crash-point sweep
    bounds for {!Sweep.crash_points}. *)

val judge : subject -> instance -> Engine.result -> verdict
(** The three-verdict judgement described above, applied to one run. *)

val run_plan :
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  subject ->
  Plan.t ->
  verdict * Engine.result * Schedule.t
(** One judged run under a plan, with its recorded decision sequence.
    Without [trace_buf] the result's trace is freshly allocated and
    owned by the caller ([hybridsim faults --trace-out] exports it).
    With it the run records into that reused buffer
    ({!Inject.run_recorded}), and the result's trace is valid only until
    the buffer's next run — how {!certify} runs every plan. *)

val replay_judge :
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  subject ->
  Plan.t ->
  Schedule.t ->
  verdict
(** Deterministic re-execution (fresh instance, scripted policy) — the
    predicate behind shrinking. [trace_buf] as in {!run_plan}. *)

val certify :
  ?jobs:int ->
  ?pool_stats:Hwf_par.Pool.stats ->
  ?retry:Hwf_resil.Resil.retry ->
  ?cell_wall_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  subject ->
  Plan.t list ->
  report
(** Run and judge every plan, minimizing each failing schedule (at most
    200 shrink rounds). Deterministic: same subject, plans and seeds give
    the same report.

    [jobs] (default 1) distributes the plans — the independent
    (victim, crash-point, plan) cells that {!Sweep} and
    {!Suite.campaign} generate — over that many domains. Each cell
    rebuilds its policy from the subject's seed ([subject.policy ()] is
    called once per plan, parallel or not) and shrinks its own failure
    by replaying only its own plan, so the report is identical to
    [~jobs:1] plan for plan, including the shrunk counterexample
    schedules. Each worker keeps one scratch trace
    ({!Hwf_par.Pool.map_scratch}) and records every engine run of its
    cells into it — judged run, shrink replays and message replay — so
    per-run growth of the trace's buffer and tables is paid once per
    worker; a report references plans, schedules and messages only,
    never that trace.

    [pool_stats] (off by default) accumulates the domain pool's
    occupancy counters for [hybridsim stats]; it never affects the
    report.

    Resilience (see [docs/ROBUSTNESS.md]): every plan is one fault-
    contained cell. [cell_wall_s] gives each cell a wall-clock budget,
    enforced inside its engine runs via the trace sink and between
    shrink replays — a livelocked cell becomes a structured timeout in
    [coverage], not a hang. [retry] (default
    {!Hwf_resil.Resil.no_retry}) re-runs timed-out/transiently-failed
    cells with backoff; a retried cell is {e demoted} — shrinking is
    disabled for it, trading counterexample minimality for coverage.
    Exceptions escaping a cell are classified
    ({!Hwf_resil.Resil.classify}) and folded into [coverage] as errors;
    they never abort the other plans. Note that a counterexample is a
    {e verdict}, never an exception — failed cells are successful
    evaluations and appear in [failures] exactly as before.

    [checkpoint] journals each completed cell to an [hwf-ckpt/2] file
    through {!Hwf_resil.Checkpoint}; with [resume = true] the journal's
    cells whose key is their plan are restored instead of re-evaluated
    (the journal must match the campaign — same subject and plan
    battery — or the call raises [Invalid_argument]). A clean campaign
    killed and resumed yields a report identical to an uninterrupted
    one. [should_stop] (polled before each cell, and after it when
    journaling; ORed with {!Hwf_resil.Resil.interrupted}) stops claiming
    new cells; completed cells are kept, and journaled unless the stop
    came while they ran. *)

val certified : report -> bool
(** No failures. *)

val pp_failure : failure Fmt.t
val pp_report : report Fmt.t
