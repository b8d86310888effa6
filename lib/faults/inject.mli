(** Executing a run under a fault plan.

    Translates a {!Plan.t} into the engine's fault inputs: crashes become
    its [crashes] list (the engine parks a victim once past its crash
    point with no active quantum guarantee), the cost model becomes the
    [cost] hook, and Axiom-2 windows become the [axiom2_active] gate. Because
    all three are engine-level and deterministic, a faulted run can be
    re-executed exactly from its decision sequence — which is what makes
    schedule shrinking work on counterexamples found under faults. *)

open Hwf_sim

val run :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  plan:Plan.t ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  Engine.result
(** One run of [programs] under [plan]. [sink] is passed through to
    [Engine.run] — this is also the hook the resilience layer uses to
    enforce wall-clock deadlines inside a run
    ({!Hwf_resil.Resil.guard_observer}, wrapped as a sink by
    {!Certify}). [trace_buf] (passed through likewise)
    records the run into a reused scratch trace instead of a fresh one;
    the returned [result.trace] is then that buffer and is valid only
    until the buffer's next run (see {!Hwf_sim.Engine.run}). Without it
    the trace is freshly allocated and owned by the caller. *)

val run_recorded :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  plan:Plan.t ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  Engine.result * Proc.pid Vec.t
(** Like {!run}, also returning the scheduling decisions taken, in
    order, as a growable int buffer: a replayable schedule for {!replay}
    and {!Hwf_adversary.Shrink.shrink_by} once turned into a list with
    {!Hwf_sim.Vec.to_list}, which a caller need only do for a failing
    run. [trace_buf] as in {!run}. *)

val replay :
  ?step_limit:int ->
  ?sink:Trace.sink ->
  ?trace_buf:Trace.t ->
  plan:Plan.t ->
  config:Config.t ->
  schedule:Proc.pid list ->
  (unit -> unit) array ->
  Engine.result
(** Re-run under [plan] following [schedule]
    (via {!Hwf_sim.Policy.scripted} with {!Hwf_sim.Policy.first} as
    fallback, so shrunk schedules — which may have gaps — still drive a
    complete run). [trace_buf] as in {!run}. *)

val crashes : Plan.t -> (Proc.pid * int) list
(** The plan's crashes as the engine's [(victim, after)] pairs. Exposed
    for tests, like {!cost_fn} and {!gate_fn}: the differential suite
    hands the three inputs to the reference interpreter. *)

val cost_fn : Plan.t -> config:Config.t -> (step:int -> Proc.pid -> Op.t -> int) option
(** The [cost] hook the plan induces ([None] for [Uniform]). *)

val gate_fn : Plan.t -> (step:int -> bool) option
(** The [axiom2_active] gate the plan induces ([None] for [Enforced]).
    @raise Invalid_argument on a malformed [Windows] spec. *)

val jitter_hash : seed:int -> step:int -> pid:int -> int
(** The deterministic hash behind [Jitter] costs. Exposed for tests. *)
