open Hwf_sim
open Hwf_core
open Hwf_check
open Hwf_workload
module Resil = Hwf_resil.Resil

(* [n] equal-priority processes proposing once to a Fig. 3 object
   named [name], judged on the survivors' decisions. *)
let fig3_instance ~name ~n =
  let config =
    Layout.to_config ~quantum:Bounds.uniprocessor_consensus_quantum
      (Layout.uniform ~processors:1 ~per_processor:n)
  in
  let make () =
    let obj = Uni_consensus.make name in
    let outputs, programs =
      Scenarios.propose_once ~n (fun _ v -> Uni_consensus.decide obj v)
    in
    let check ~survivors _r = Scenarios.survivors_agree outputs survivors in
    Certify.{ programs; check }
  in
  (config, make)

(* Fig. 3: uniprocessor read/write consensus, three equal-priority
   processes, Q = 8 (Theorem 1). Own work is exactly the 8 unrolled
   statements of one decide. *)
let fig3 ?(seed = 17) () =
  let config, make = fig3_instance ~name:"f3.cons" ~n:3 in
  Certify.
    {
      name = "fig3";
      config;
      policy = (fun () -> Policy.random ~seed);
      make;
      step_bound = Uni_consensus.statements_per_decide;
      bound_desc = "8 (Thm 1, O(1))";
      step_limit = 10_000;
    }

(* Fig. 3 in the time model of Table 1: statements cost 1..2 time units
   and Q is a time budget, sized so that even all-Tmax statements leave
   a full invocation protected (Q >= 8 * Tmax). The [Slow] and [Jitter]
   cost plans attack exactly this headroom. *)
let fig3_time ?(seed = 19) () =
  let n = 3 in
  let tmax = 2 in
  let procs =
    List.init n (fun pid -> Proc.make ~pid ~processor:0 ~priority:1 ())
  in
  let config =
    Config.uniprocessor ~tmin:1 ~tmax
      ~quantum:(Bounds.uniprocessor_consensus_quantum * tmax)
      ~levels:1 procs
  in
  let base = fig3 ~seed () in
  Certify.
    {
      base with
      name = "fig3-time";
      config;
      bound_desc = "8 (Thm 1, O(1); Q a time budget)";
    }

(* Fig. 5: the O(V) hybrid C&S object on a uniprocessor with three
   distinct priorities, each process running a short scripted CAS/read
   workload. Linearizability is judged with crashed processes'
   operations pending. The per-process own-step bound is c.V per
   operation (Theorem 2): each cas/read retries at most once per
   priority level; the constant below was measured over the full crash
   sweep and holds with slack. *)
let fig5 ?(seed = 23) () =
  let n = 3 in
  let layout = [ (0, 1); (0, 2); (0, 3) ] in
  let config = Layout.to_config ~quantum:600 layout in
  let ops_per = 2 in
  let script = Scenarios.random_script ~seed:5 ~n ~ops_per in
  let make () =
    let obj = Hybrid_cas.make ~config ~name:"f5.o" ~init:0 in
    let hist, programs =
      Scenarios.cas_programs script
        ~cas:(fun ~pid expected desired -> Hybrid_cas.cas obj ~pid ~expected ~desired)
        ~read:(fun ~pid -> Hybrid_cas.read obj ~pid)
    in
    let check ~survivors:_ _r =
      Lincheck.check_hist_with_pending Scenarios.cas_spec hist
    in
    Certify.{ programs; check }
  in
  Certify.
    {
      name = "fig5";
      config;
      policy = (fun () -> Policy.random ~seed);
      make;
      step_bound = Bounds.fig5_stmt_const * Layout.levels layout * ops_per;
      bound_desc =
        Fmt.str "%d = c.V.ops (Thm 2, O(V) per op)"
          (Bounds.fig5_stmt_const * Layout.levels layout * ops_per);
      step_limit = 50_000;
    }

(* Fig. 7: multiprocessor consensus from 2-consensus objects, four
   equal-priority processes on two processors (M = 2), Theorem 4
   quantum. Own work is O(L) with L the level count of the instance. *)
let fig7 ?(seed = 29) () =
  let layout = Layout.uniform ~processors:2 ~per_processor:2 in
  let n = List.length layout in
  let config = Layout.to_config ~quantum:4000 layout in
  let consensus_number = 2 in
  let p = config.Config.processors in
  let levels =
    Bounds.levels ~m:(Config.max_per_processor config) ~p
      ~k:(Bounds.fig7_k ~p ~consensus_number)
  in
  let make () =
    let obj = Multi_consensus.make ~config ~name:"f7.mc" ~consensus_number () in
    let outputs, programs =
      Scenarios.propose_once ~n (fun pid v -> Multi_consensus.decide obj ~pid v)
    in
    let check ~survivors _r =
      if Multi_consensus.exhausted_proposals obj > 0 then
        Error "a C-consensus object was exhausted (Theorem 4 quantum violated)"
      else Scenarios.survivors_agree outputs survivors
    in
    Certify.{ programs; check }
  in
  Certify.
    {
      name = "fig7";
      config;
      policy = (fun () -> Policy.random ~seed);
      make;
      step_bound = Bounds.fig7_stmt_const * levels;
      bound_desc =
        Fmt.str "%d = c.L, L=%d (Thm 4, O(L))" (Bounds.fig7_stmt_const * levels) levels;
      step_limit = 100_000;
    }

(* Universal construction: a counter over Fig. 3 consensus cells on a
   hybrid uniprocessor. Survivors' increment results must be distinct
   values in 1..N. *)
let universal ?(seed = 31) () =
  let pris = [ 1; 1; 1 ] in
  let n = List.length pris in
  let layout = List.map (fun p -> (0, p)) pris in
  let config = Layout.to_config ~quantum:3000 layout in
  let make () =
    let factory = Wf_objects.uni_factory () in
    let c = Wf_objects.counter ~name:"u.ctr" ~n ~factory in
    let results, programs =
      Scenarios.increment_once ~n (fun pid -> Wf_objects.incr c ~pid)
    in
    let check ~survivors _r =
      let outs = List.filter_map (fun p -> results.(p)) survivors in
      let distinct = List.sort_uniq compare outs in
      if List.length distinct <> List.length outs then
        Error (Fmt.str "duplicate increment results: %a" Fmt.(Dump.list int) outs)
      else if List.exists (fun v -> v < 1 || v > n) outs then
        Error (Fmt.str "increment result outside 1..%d: %a" n Fmt.(Dump.list int) outs)
      else Ok ()
    in
    Certify.{ programs; check }
  in
  Certify.
    {
      name = "universal";
      config;
      policy = (fun () -> Policy.random ~seed);
      make;
      step_bound = Bounds.universal_stmt_const * n;
      bound_desc =
        Fmt.str "%d = c.N (universal, O(N) per op)" (Bounds.universal_stmt_const * n);
      step_limit = 50_000;
    }

(* The negative control: two processes racing the Fig. 3 algorithm under
   a hand-derived schedule that only becomes legal once the Axiom 2
   quantum guarantee is switched off. Both processes read every P[i]
   cell as unset before either writes, and p2 completes its final read
   of P[3] before p1's overwrite lands — a disagreement (Sec. 2: without
   Axiom 2 the hierarchy collapses, so read/write consensus must fail).
   Under an enforced Axiom 2 the scripted entries are illegal at the
   decisive points and the fallback reorders the run into a passing one,
   which is exactly what makes this a control: the certifier must accept
   the enforced run and reject the suspended one. *)
let attack_schedule = [ 0; 0; 1; 1; 0; 1; 0; 1; 0; 1; 0; 1; 1; 1; 0; 0 ]

let negative ?seed:_ () =
  let config, make = fig3_instance ~name:"neg.cons" ~n:2 in
  Certify.
    {
      (fig3 ()) with
      name = "fig3-no-axiom2";
      config;
      policy = (fun () -> Policy.scripted ~fallback:Policy.first attack_schedule);
      make;
    }

let negative_plan = Plan.(with_axiom2 Suspended none)

let positive_subjects ?seed () =
  [ fig3 ?seed (); fig3_time ?seed (); fig5 ?seed (); fig7 ?seed (); universal ?seed () ]

let victims subject = List.init (Config.n subject.Certify.config) Fun.id

let campaign ?(quick = false) ?seed subject =
  let solo = Certify.solo_own_steps subject in
  let n = Config.n subject.Certify.config in
  let base_seed = match seed with Some s -> s | None -> 41 in
  let stride =
    if quick then max 1 (Array.fold_left max 1 solo / 8) else 1
  in
  let crash = Sweep.crash_points ~stride ~victims:(victims subject) ~solo () in
  let pairs =
    if quick then []
    else
      Sweep.crash_pairs
        ~stride:(max 2 (Array.fold_left max 1 solo / 4))
        ~victims:(victims subject) ~solo ()
  in
  let chaos =
    Sweep.chaos
      ~seeds:(List.init (if quick then 2 else 8) (fun i -> base_seed + i))
      ~n
      ~max_after:(Array.fold_left max 0 solo)
  in
  let cost =
    let cfg = subject.Certify.config in
    if cfg.Config.tmax > cfg.Config.tmin then begin
      let costs =
        Sweep.cost_plans
          ~seeds:(List.init (if quick then 1 else 4) (fun i -> base_seed + 100 + i))
      in
      (* also layer each cost model over a mid-run crash of the last
         victim, so quantum pressure and crashes interact *)
      let mid = { Plan.victim = n - 1; after = solo.(n - 1) / 2 } in
      costs @ List.map (fun c -> Plan.layer (Plan.crashes [ mid ]) c) costs
    end
    else []
  in
  (Plan.none :: crash) @ pairs @ cost @ chaos

type row = { subject : Certify.subject; report : Certify.report; verdict : string; ok : bool }

type certification = { positives : row list; negative : row option; coverage : Resil.coverage }

let certify_all ?quick ?seed ?(only = []) ?negative:(control = false) ?jobs ?retry
    ?cell_wall_s ?checkpoint ?resume () =
  let row ~ok ~label subject plans =
    let report =
      Certify.certify ?jobs ?retry ?cell_wall_s
        ?checkpoint:
          (Option.map
             (fun base -> Printf.sprintf "%s.%s.ckpt.jsonl" base subject.Certify.name)
             checkpoint)
        ?resume subject plans
    in
    let ok = ok report in
    let verdict =
      if Resil.complete report.Certify.coverage then label report ok
      else Fmt.str "INCOMPLETE (%a)" Resil.pp_coverage report.Certify.coverage
    in
    { subject; report; verdict; ok }
  in
  let positives =
    List.filter (fun s -> only = [] || List.mem s.Certify.name only) (positive_subjects ?seed ())
    |> List.map (fun subject ->
           row ~ok:Certify.certified
             ~label:(fun report ok ->
               if ok then "CERTIFIED"
               else Printf.sprintf "FAILED (%d)" (List.length report.Certify.failures))
             subject
             (campaign ?quick ?seed subject))
  in
  let negative =
    if not control then None
    else
      Some
        (row
           ~ok:(fun report -> not (Certify.certified report))
           ~label:(fun _ ok ->
             if ok then "REJECTED (expected)" else "NOT REJECTED (certifier bug!)")
           (negative ()) [ negative_plan ])
  in
  let coverage =
    List.fold_left
      (fun acc r -> Resil.coverage_union acc r.report.Certify.coverage)
      (Resil.full_coverage 0)
      (positives @ Option.to_list negative)
  in
  { positives; negative; coverage }

let columns { report = r; verdict; _ } =
  [
    r.Certify.subject;
    string_of_int r.plans;
    string_of_int r.passed;
    string_of_int r.blocked;
    string_of_int r.worst_own_steps;
    r.bound_desc;
    verdict;
  ]
