(** The naive reference interpreter: the oracle for {!Hwf_sim.Engine}.

    Written from [docs/MODEL.md] alone, and deliberately naive: every
    scheduling decision rescans all processes once for each
    processor's maximum ready level, the Axiom-2 guarantee holders and
    the runnable set (ascending pid order); every statement broadcasts
    the [pending] flag to the other mid-invocation processes on its
    processor; every decision builds a fresh policy view and consults
    the policy. It has no bursts, no list cache, no version counters,
    no lazily built views and no live list, and shares no code with the
    engine: only the output and effect vocabulary ([Trace], [Policy],
    [Eff], [Runtime], [Config]) and the [Engine.result] type it
    returns. Each decision costs O(N).

    The engine must agree with it byte for byte — traces, stop reasons,
    per-process results, [Invalid_argument] messages and teardown of
    suspended processes. {!differential} is the check. *)

open Hwf_sim

val run :
  ?step_limit:int ->
  ?cost:(step:int -> Proc.pid -> Op.t -> int) ->
  ?crashes:(Proc.pid * int) list ->
  ?axiom2_active:(step:int -> bool) ->
  config:Config.t ->
  policy:Policy.t ->
  (unit -> unit) array ->
  Engine.result
(** [run ~config ~policy programs] executes [programs] under [policy]
    with the meaning {!Hwf_sim.Engine.run} documents for the same
    arguments (it has no [sink] or [trace_buf]: the trace is fresh). *)

(** {2 Comparison} *)

type outcome = Returned of Engine.result | Raised of string
(** A run's result, or the [Printexc] string of what it raised. *)

val outcome : (unit -> Engine.result) -> outcome

val diff : outcome -> outcome -> string option
(** [None] when both runs returned with equal trace bytes (the JSONL
    export), [stop], [finished], [own_steps] and [halted], or both
    raised the same exception string; otherwise the first difference,
    described. *)

val differential :
  engine:(Policy.t -> Engine.result) ->
  reference:(Policy.t -> Engine.result) ->
  Policy.t ->
  string option
(** The engine-vs-reference check, [None] on agreement. [engine] and
    [reference] run the same programs and hooks under the policy they
    are given. Four runs:

    - the engine under the policy as given, whose {!diff} against the
      reference covers quantum-burst batching;
    - the engine under a recording wrapper that reads and copies every
      process's view at every policy call and is not burst-safe, so
      every decision consults it while schedulable-list caching stays
      on;
    - the engine under a sparse recording wrapper, which reads every
      process's view on even calls but only the runnable ones' on odd
      calls, so views the policy leaves unread across decisions are
      audited when they are next read;
    - the reference under the full wrapper.

    Both recorded engine runs must also {!diff} equal, and every
    recorded view — [step], [runnable] and each process view the
    wrapper read — must equal the reference's at the same decision:
    this audits the engine's cached runnable list and its views built
    on read in the configuration that ships. *)
