(* The four campaign workloads, each run the way the CLI runs it at
   [--jobs 1], plus the traced variants that wrap every call into a
   layer's public functions with a span (see spans.ml). *)

open Hwf_sim
open Hwf_adversary
open Hwf_workload
open Hwf_faults

(* One complete slice of a campaign. [counters] are exact outputs of the
   program: they must repeat bit-for-bit across slices of one group and
   match the pins where the seed has any. *)
type slice = {
  schedules : int;  (** Verdict-checked schedules (judged plans). *)
  failed : int;  (** Counterexamples, harness errors, uncertified plans. *)
  makes : int;
      (** [make] calls the slice performs: one per engine run, plus the
          sampler's pilot run. The traced run checks its spans against it. *)
  counters : (string * int) list;
}

type prepared = {
  groups : int;
      (** Slices come in [groups] fixed units of work; a run cycles through
          them, and a full round is one whole campaign. *)
  slice : traced:bool -> int -> slice;
}

type t = {
  name : string;
  setup_reps : int;  (** Timed set-ups per run; the median is reported. *)
  setup_batch : int;  (** Constructions per timed set-up (sub-millisecond set-ups). *)
  setup : seed:int -> traced:bool -> prepared;
}

(* The CLI's statement budget for [explore]. *)
let step_limit = 8_000_000
let b2i b = if b then 1 else 0

(* ---- traced-run wrappers ---- *)

(* Exact work counted from the traces handed to verdicts. *)
let stmts = ref 0
let events = ref 0

(* Set-up layer timings of the traced run, one per set-up. *)
let lint_s = ref []
let indep_s = ref []

(* A run's gap ends when its verdict is entered ([Gap]), or, for a run
   whose result no verdict checks, when the next run starts or the slice
   ends ([Blocked]). *)
let close_gap k = if Spans.top_is Spans.Gap then Spans.leave_as (Some k)

let retime_wellformed (r : Engine.result) =
  stmts := !stmts + Trace.statements r.trace;
  events := !events + Trace.length r.trace;
  Spans.with_span Spans.Wellformed (fun () -> ignore (Wellformed.check r.trace))

let traced_make make wrap () =
  close_gap Spans.Blocked;
  let i = Spans.with_span Spans.Make make in
  Spans.enter Spans.Gap;
  wrap i

let traced_check check r =
  close_gap Spans.Gap;
  Spans.with_span Spans.Check (fun () ->
      retime_wellformed r;
      check r)

let traced_scenario (s : Explore.scenario) =
  let wrap (i : Explore.instance) = { i with Explore.check = traced_check i.check } in
  { s with Explore.make = traced_make s.make wrap }

let traced_policy (p : Policy.t) =
  {
    p with
    Policy.make =
      (fun () ->
        let decide = Policy.prepare p in
        fun v ->
          Spans.enter Spans.Policy_decide;
          let r = decide v in
          Spans.leave ();
          r);
  }

let traced_subject (s : Certify.subject) =
  let wrap (i : Certify.instance) =
    { i with Certify.check = (fun ~survivors -> traced_check (i.check ~survivors)) }
  in
  {
    s with
    Certify.make = traced_make s.make wrap;
    policy = (fun () -> traced_policy (Spans.with_span Spans.Policy_make s.policy));
  }

(* ---- set-up pieces ---- *)

let consensus impl layout =
  (Scenarios.consensus ~name:"perfbench" ~impl ~quantum:8 ~layout).Scenarios.scenario

(* The canonical probe: the all-first schedule the CLI replays for its
   clock-taint line. *)
let probe scenario = ignore (Schedule.replay scenario [])

(* [explore --indep]: lint battery, then the swap-replay-certified
   oracle, threading each fresh instance's verdict into the certifier. *)
let indep_relation ~traced (scenario : Explore.scenario) =
  let timed kind acc f =
    if not traced then f ()
    else begin
      let t0 = Spans.now () in
      let v = Spans.with_span kind f in
      acc := (float_of_int (Spans.now () - t0) *. 1e-9) :: !acc;
      v
    end
  in
  let current_check = ref (fun (_ : Engine.result) -> Ok ()) in
  let make () =
    let i = scenario.make () in
    current_check := i.Explore.check;
    i.Explore.programs
  in
  let spec =
    {
      Hwf_lint.Lint.name = scenario.name;
      config = scenario.config;
      make;
      expect = Hwf_lint.Checks.Helping;
      min_quantum = 1;
      theorem = "independence oracle";
      fair_only = true;
      step_limit;
    }
  in
  let outcome = timed Spans.Lint lint_s (fun () -> Hwf_lint.Lint.run spec) in
  match
    timed Spans.Indep indep_s (fun () ->
        Hwf_lint.Indep.certified_relation
          ~check:(fun r -> !current_check r)
          ~config:scenario.config ~make outcome)
  with
  | Error m -> failwith ("independence oracle refuted: " ^ m)
  | Ok (t, cert) ->
    let s = Hwf_lint.Indep.summary t in
    ( { Explore.rname = "static"; rel = Hwf_lint.Indep.relation t },
      [
        ("oracle.rmw_nodes", s.rmw_nodes);
        ("oracle.insensitive_nodes", s.insensitive_nodes);
        ("oracle.indep_pairs", s.indep_pairs);
        ("oracle.schedules", cert.schedules);
        ("oracle.swaps", cert.swaps);
      ] )

(* ---- campaigns ---- *)

let explore_slice ?relation ?max_runs ~extra scenario ~traced =
  let stats = Explore.make_stats ~jobs:1 scenario in
  let sc = if traced then traced_scenario scenario else scenario in
  let o = Explore.explore ?max_runs ~step_limit ~jobs:1 ?relation ~stats sc in
  let blocked = Explore.stats_source_prunes stats in
  let failed =
    if o.counterexample <> None || not (Hwf_resil.Resil.complete o.coverage) then 1 else 0
  in
  {
    schedules = o.runs;
    failed;
    makes = o.runs + blocked;
    counters =
      [
        ("adversary.engine_runs", o.runs + blocked);
        ("adversary.verdict_runs", o.runs);
        ("adversary.blocked_prefixes", blocked);
        ("adversary.pruned_branches", Explore.stats_pruned stats);
        ("explore.exhaustive", b2i o.exhaustive);
      ]
      @ extra;
  }

let explore_uni =
  {
    name = "explore-uni";
    setup_reps = 15;
    setup_batch = 1000;
    setup =
      (fun ~seed:_ ~traced:_ ->
        let scenario = consensus Scenarios.Fig3 [ (0, 1); (0, 1); (0, 1) ] in
        probe scenario;
        { groups = 1; slice = (fun ~traced _ -> explore_slice ~extra:[] scenario ~traced) });
  }

(* Engine runs per explore-mp slice: enough for about half a second of
   search on a 2-vCPU host. The search is not exhaustive at this cap. *)
let mp_cap = 200

let explore_mp =
  {
    name = "explore-mp";
    setup_reps = 3;
    setup_batch = 1;
    setup =
      (fun ~seed:_ ~traced ->
        let scenario =
          consensus (Scenarios.Fig7 { consensus_number = 2 }) [ (0, 1); (1, 1); (0, 1) ]
        in
        probe scenario;
        let relation, oracle = indep_relation ~traced scenario in
        {
          groups = 1;
          slice =
            (fun ~traced _ ->
              explore_slice ~relation ~max_runs:mp_cap ~extra:oracle scenario ~traced);
        });
  }

(* Runs per sample-pct slice. *)
let pct_runs = 250

let sample_pct =
  {
    name = "sample-pct";
    setup_reps = 15;
    setup_batch = 20;
    setup =
      (fun ~seed ~traced:_ ->
        let scenario =
          consensus (Scenarios.Fig7 { consensus_number = 2 })
            [ (0, 1); (0, 1); (1, 1); (1, 1) ]
        in
        probe scenario;
        let slice ~traced _ =
          let stats = Explore.make_stats ~jobs:1 scenario in
          let strategy = Randsched.Pct { depth = 3 } in
          let o =
            if not traced then
              Explore.sample ~runs:pct_runs ~step_limit ~jobs:1 ~stats ~strategy ~seed
                scenario
            else begin
              let trace_buf = Trace.create scenario.config in
              let runner ~step_limit ~policy (i : Explore.instance) =
                Spans.with_span Spans.Engine (fun () ->
                    Engine.run ~step_limit ~trace_buf ~config:scenario.config
                      ~policy:(traced_policy policy) i.programs)
              in
              Explore.sample ~runs:pct_runs ~step_limit ~jobs:1 ~stats ~runner ~strategy
                ~seed (traced_scenario scenario)
            end
          in
          let bugs = b2i (o.counterexample <> None) in
          let sampled = Explore.stats_sampled stats in
          {
            schedules = o.runs;
            failed = bugs;
            makes = sampled + 1;
            counters =
              [
                ("adversary.engine_runs", sampled);
                ("adversary.verdict_runs", o.runs);
                ("sample.bugs", bugs);
              ];
          }
        in
        { groups = 1; slice });
  }

(* Plan groups per certify-faults round: plan [i] of every subject goes
   to group [i mod fault_groups], so each group is a strided sample of
   the whole battery and takes about half a second. *)
let fault_groups = 8

let subject_names = [ "fig3"; "fig3-time"; "fig5"; "fig7"; "universal" ]

let certify_faults =
  {
    name = "certify-faults";
    setup_reps = 15;
    setup_batch = 4;
    setup =
      (fun ~seed ~traced:_ ->
        let subjects = Suite.positive_subjects () in
        let batteries =
          List.map (fun s -> (s, Suite.campaign ~quick:false ~seed s)) subjects
        in
        if List.map (fun (s, _) -> s.Certify.name) batteries <> subject_names then
          failwith "certify-faults: unexpected positive subjects";
        let groups =
          Array.init fault_groups (fun g ->
              List.map
                (fun (s, plans) ->
                  (s, List.filteri (fun i _ -> i mod fault_groups = g) plans))
                batteries)
        in
        let slice ~traced g =
          let schedules = ref 0 and failed = ref 0 and makes = ref 0 in
          let counters =
            List.concat
              (List.mapi
                 (fun k (s, plans) ->
                   let r =
                     if not traced then Certify.certify ~jobs:1 s plans
                     else
                       Spans.with_span (Spans.Subject k) (fun () ->
                           Certify.certify ~jobs:1 (traced_subject s) plans)
                   in
                   schedules := !schedules + r.passed + List.length r.failures;
                   failed := !failed + (r.plans - r.passed);
                   makes := !makes + r.plans;
                   let n = s.Certify.name in
                   [
                     ("faults." ^ n ^ ".plans", r.plans);
                     ("faults." ^ n ^ ".passed", r.passed);
                     ("faults." ^ n ^ ".blocked", r.blocked);
                   ])
                 groups.(g))
          in
          { schedules = !schedules; failed = !failed; makes = !makes; counters }
        in
        { groups = fault_groups; slice });
  }

let all = [ explore_uni; explore_mp; certify_faults; sample_pct ]
let find name = List.find_opt (fun w -> w.name = name) all
