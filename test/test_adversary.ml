open Hwf_sim
open Hwf_adversary
open Hwf_workload

(* The model checker, the stagger adversary and the bivalence prober. *)

let fig3 ~quantum ~pris =
  Scenarios.consensus ~name:"f3" ~impl:Scenarios.Fig3 ~quantum
    ~layout:(List.map (fun p -> (0, p)) pris)

let test_explore_finds_fig3_bug () =
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  let o = Explore.explore b.scenario in
  Util.expect_fail "fig3 Q=1" o;
  match o.counterexample with
  | Some c ->
    Util.checkb "message mentions disagreement" (Util.contains c.message "disagreement");
    Util.checkb "counterexample trace is well-formed" (Wellformed.is_well_formed c.trace);
    Util.checkb "has a decision path" (c.decisions <> [])
  | None -> assert false

let test_explore_exhaustive_flag () =
  let b = fig3 ~quantum:8 ~pris:[ 1; 1 ] in
  let o = Explore.explore b.scenario in
  Util.checkb "exhaustive" o.exhaustive;
  let o' = Explore.explore ~max_runs:5 b.scenario in
  Util.checkb "not exhaustive when capped" (not o'.exhaustive)

let test_preemption_bound_restricts () =
  (* With bound 0, only run-to-completion schedules: far fewer runs. *)
  let b = fig3 ~quantum:8 ~pris:[ 1; 1; 1 ] in
  let o0 = Explore.explore ~preemption_bound:0 b.scenario in
  let o1 = Explore.explore ~preemption_bound:1 b.scenario in
  Util.checkb "bound 0 fewer runs than bound 1" (o0.runs < o1.runs);
  Util.expect_ok "bound 0" o0;
  Util.expect_ok "bound 1" o1

let test_explore_respects_check () =
  (* A check that always fails produces a counterexample on the first run. *)
  let config = Util.uni_config ~quantum:8 [ 1 ] in
  let scenario =
    Explore.
      {
        name = "alwaysfail";
        config;
        make =
          (fun () ->
            {
              programs = [| (fun () -> Eff.invocation "x" (fun () -> Eff.local "s")) |];
              check = (fun _ -> Error "nope");
            });
      }
  in
  let o = Explore.explore scenario in
  Util.checki "one run" 1 o.runs;
  Util.expect_fail "always fail" o

let test_iter_schedules_coverage () =
  let b = fig3 ~quantum:8 ~pris:[ 1; 1 ] in
  let seen = ref 0 in
  let n =
    Explore.iter_schedules b.scenario ~f:(fun ~pids _r ->
        incr seen;
        Util.checkb "nonempty path" (pids <> []);
        `Continue)
  in
  Util.checki "callback per run" n !seen;
  let o = Explore.explore b.scenario in
  Util.checki "same count as explore" o.runs n

let test_random_runs_deterministic () =
  let b = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let o1 = Explore.sample ~strategy:Randsched.Naive ~runs:300 ~seed:5 b.scenario in
  let o2 = Explore.sample ~strategy:Randsched.Naive ~runs:300 ~seed:5 b.scenario in
  Util.checki "same verdict run count" o1.runs o2.runs

(* Record the naive sampler's schedule for run [i] of a campaign — the
   pure function of [Explore.run_seed seed i] that [Explore.sample]
   executes. *)
let sampled_schedule (scenario : Explore.scenario) ~seed i =
  let decisions = ref [] in
  let policy =
    Policy.of_factory "rec" (fun () ->
        let choose =
          Policy.prepare (Policy.random ~seed:(Explore.run_seed seed i))
        in
        fun v ->
          match choose v with
          | Some p as r ->
            decisions := p :: !decisions;
            r
          | None -> None)
  in
  let instance = scenario.Explore.make () in
  ignore (Engine.run ~config:scenario.Explore.config ~policy instance.Explore.programs);
  List.rev !decisions

let test_adjacent_campaign_seeds_disjoint () =
  (* Regression: per-run seeds are a splitmix-style hash of (seed, i).
     The old [seed + i] derivation made adjacent campaigns share all
     but one per-run seed, so campaigns 41 and 42 sampled essentially
     the same schedule set (39 of these 40 coincided). *)
  let runs = 40 in
  let b = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let schedules seed = List.init runs (sampled_schedule b.scenario ~seed) in
  let s41 = schedules 41 and s42 = schedules 42 in
  let shared = List.filter (fun s -> List.mem s s42) s41 in
  Util.checki "disjoint schedule sets" 0 (List.length shared);
  let seeds s = List.init runs (Explore.run_seed s) in
  let shared_seeds =
    List.filter (fun x -> List.mem x (seeds 42)) (seeds 41)
  in
  Util.checki "disjoint per-run seeds" 0 (List.length shared_seeds)

let test_sample_deterministic_across_jobs () =
  (* The sample contract: run [i] is a pure function of (seed, i), so
     the outcome — run count, counterexample message and schedule — is
     byte-identical at any [jobs]. *)
  let b = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let go jobs =
    Explore.sample ~runs:200 ~jobs ~strategy:Randsched.Naive ~seed:5 b.scenario
  in
  let o1 = go 1 and o2 = go 2 in
  Util.checki "same run count" o1.Explore.runs o2.Explore.runs;
  match (o1.counterexample, o2.counterexample) with
  | Some c1, Some c2 ->
    Alcotest.(check (list int)) "same schedule" c1.decisions c2.decisions;
    Alcotest.(check string) "same message" c1.message c2.message
  | None, None -> Alcotest.fail "expected a counterexample within 200 runs"
  | _ -> Alcotest.fail "divergent outcomes across jobs"

let test_strategies_find_fig3 () =
  (* Every sampling strategy finds the fig3 Q=1 disagreement within a
     modest budget, and the recorded schedule replays to the same
     failure through the Schedule machinery. *)
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  List.iter
    (fun strategy ->
      let o = Explore.sample ~runs:2_000 ~strategy ~seed:1 b.scenario in
      match o.Explore.counterexample with
      | None -> Alcotest.fail (Fmt.str "%a found nothing in 2000 runs" Randsched.pp strategy)
      | Some c ->
        Util.checkb
          (Fmt.str "%a counterexample replays" Randsched.pp strategy)
          (Schedule.verdict b.scenario c.decisions <> Ok ()))
    Randsched.[ Naive; Pct { depth = 5 }; Pos; Surw ]

let test_randsched_of_name () =
  (match Randsched.of_name ~depth:4 "pct" with
  | Ok (Randsched.Pct { depth }) -> Util.checki "depth" 4 depth
  | _ -> Alcotest.fail "pct");
  (match Randsched.of_name "random" with
  | Ok Randsched.Naive -> ()
  | _ -> Alcotest.fail "random is naive");
  (match Randsched.of_name "dfs" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown strategy");
  match Randsched.of_name ~depth:0 "pct" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted depth 0"

let test_stagger_max_interleave_legal () =
  (* The staggering policy never produces ill-formed traces. *)
  let layout = Layout.uniform ~processors:2 ~per_processor:3 in
  let config = Layout.to_config ~quantum:5 layout in
  let x = Shared.make "x" 0 in
  let bodies =
    Array.init 6 (fun _ () ->
        for _ = 1 to 3 do
          Eff.invocation "op" (fun () ->
              let v = Shared.read x in
              Eff.local "l";
              Shared.write x (v + 1))
        done)
  in
  let r = Util.run ~config ~policy:(Stagger.max_interleave ()) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished)

let test_stagger_interleaves_more_than_rr () =
  let switches policy =
    let config = Util.uni_config ~quantum:2 [ 1; 1; 1 ] in
    let bodies =
      Array.init 3 (fun _ () ->
          Eff.invocation "op" (fun () ->
              for _ = 1 to 6 do
                Eff.local "s"
              done))
    in
    let r = Util.run ~config ~policy bodies in
    let rec count prev = function
      | [] -> 0
      | Trace.Stmt { pid; _ } :: rest -> (if pid <> prev then 1 else 0) + count pid rest
      | _ :: rest -> count prev rest
    in
    count (-1) (Trace.events r.trace)
  in
  let s_stagger = switches (Stagger.max_interleave ()) in
  Util.checkb
    (Printf.sprintf "stagger switches often (%d)" s_stagger)
    (s_stagger >= 6)

let test_preempt_after_rmw_triggers () =
  (* The policy switches right after a matching RMW. *)
  let config = Util.uni_config ~quantum:1 [ 1; 1 ] in
  let o = Hwf_objects.Cons_obj.make ~consensus_number:2 "target" in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "op" (fun () ->
            Eff.local "pre";
            ignore (Hwf_objects.Cons_obj.propose o pid);
            Eff.local "post"))
  in
  let policy = Stagger.preempt_after_rmw ~var_prefix:"target" ~fallback:Policy.first () in
  let r = Util.run ~config ~policy bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  (* After p0's propose, the policy must run p1 before p0's "post". *)
  let order =
    List.filter_map
      (function Trace.Stmt { pid; op; _ } -> Some (pid, Fmt.str "%a" Op.pp op) | _ -> None)
      (Trace.events r.trace)
  in
  let rec after_rmw = function
    | (0, s) :: (p, _) :: _ when Util.contains s "propose" -> p = 1
    | _ :: rest -> after_rmw rest
    | [] -> false
  in
  Util.checkb "switched after rmw" (after_rmw order)

let test_schedule_roundtrip () =
  let s = [ 0; 1; 1; 0; 2 ] in
  (match Schedule.of_string (Schedule.to_string s) with
  | Ok s' -> Alcotest.(check (list int)) "roundtrip" s s'
  | Error m -> Alcotest.fail m);
  (match Schedule.of_string "1 2\n2 1" with
  | Ok s' -> Alcotest.(check (list int)) "newlines ok" [ 0; 1; 1; 0 ] s'
  | Error m -> Alcotest.fail m);
  match Schedule.of_string "1 x 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

let test_schedule_replay_reproduces () =
  (* A counterexample found by explore must still fail when replayed
     through the Schedule machinery. *)
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  match (Explore.explore b.scenario).counterexample with
  | None -> Alcotest.fail "expected counterexample"
  | Some c -> (
    match Schedule.verdict b.scenario c.decisions with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "replay did not reproduce the failure")

let test_schedule_save_load () =
  let path = Filename.temp_file "hwf" ".sched" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule.save ~path [ 2; 0; 1 ];
      (match Schedule.load ~path () with
      | Ok s -> Alcotest.(check (list int)) "load" [ 2; 0; 1 ] s
      | Error m -> Alcotest.fail m);
      (match Schedule.load ~n:3 ~path () with
      | Ok s -> Alcotest.(check (list int)) "load within n" [ 2; 0; 1 ] s
      | Error m -> Alcotest.fail m);
      (* The saved schedule's highest pid (3 on the wire) exceeds a
         2-process scenario: load must reject it, naming the token.
         Out-of-range pids used to parse into never-runnable decisions,
         so a corrupt file replayed as if empty and vacuously passed. *)
      match Schedule.load ~n:2 ~path () with
      | Error m -> Util.checkb "names the token" (Util.contains m "\"3\"")
      | Ok _ -> Alcotest.fail "accepted a pid beyond the scenario")

let test_schedule_validation () =
  (match Schedule.of_string "0 1" with
  | Error m -> Util.checkb "names the token" (Util.contains m "\"0\"")
  | Ok _ -> Alcotest.fail "accepted pid 0 (pids are 1-based on the wire)");
  (match Schedule.of_string "1 x 2" with
  | Error m -> Util.checkb "names the token" (Util.contains m "\"x\"")
  | Ok _ -> Alcotest.fail "accepted garbage");
  (match Schedule.of_string ~n:2 "1 3" with
  | Error m -> Util.checkb "names the token" (Util.contains m "\"3\"")
  | Ok _ -> Alcotest.fail "accepted out-of-range pid");
  match Schedule.of_string ~n:2 "1 2 2" with
  | Ok s -> Alcotest.(check (list int)) "in-range parses" [ 0; 1; 1 ] s
  | Error m -> Alcotest.fail m

let test_replay_skips_unrunnable_entries () =
  (* The shrunk-schedule skip path: after shrinking, an entry may not be
     runnable at its turn. [Schedule.replay]'s fallback skips it and the
     run completes; the strict script (no fallback) stops the run
     instead. At Q=8 the whole first invocation of p0 is
     quantum-protected, so the demand for p1 at the second decision is
     exactly such an entry. *)
  let b = fig3 ~quantum:8 ~pris:[ 1; 1 ] in
  let sched = [ 0; 1; 0; 0 ] in
  let r, _ = Schedule.replay b.scenario sched in
  Util.checkb "fallback replay completes" (Array.for_all Fun.id r.Engine.finished);
  Util.checkb "and passes the check" (Schedule.verdict b.scenario sched = Ok ());
  let instance = b.scenario.Explore.make () in
  let r' =
    Engine.run ~config:b.scenario.Explore.config ~policy:(Policy.scripted sched)
      instance.Explore.programs
  in
  Util.checkb "strict script stops instead" (r'.Engine.stop = Engine.Policy_stopped)

let test_shrink_minimizes () =
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  match (Explore.explore b.scenario).counterexample with
  | None -> Alcotest.fail "expected counterexample"
  | Some c ->
    let small = Shrink.shrink b.scenario c.decisions in
    Util.checkb "still fails" (Schedule.verdict b.scenario small <> Ok ());
    Util.checkb
      (Printf.sprintf "no longer than original (%d <= %d)" (List.length small)
         (List.length c.decisions))
      (List.length small <= List.length c.decisions);
    (* local minimality: removing any single decision cures the failure *)
    List.iteri
      (fun i _ ->
        let cand = List.filteri (fun j _ -> j <> i) small in
        Util.checkb "locally minimal" (Schedule.verdict b.scenario cand = Ok ()))
      small

(* S3 regression: [chunk_pass] must pick the next chunk size against the
   list as it is after the pass, not the stale pre-pass length. With
   [fails = mem 10] over [0..10], the size-5 pass collapses the list to
   the single needed element; against the stale length 11 the old code
   then scheduled a size-2 pass over that one-element list, burning a
   shrink-budget call on an empty-list candidate. We pin both the
   minimal result and the exact (deterministic) predicate-call count. *)
let test_shrink_chunk_size_not_stale () =
  let calls = ref 0 in
  let fails cand =
    incr calls;
    List.mem 10 cand
  in
  let small = Shrink.shrink_by ~fails (List.init 11 Fun.id) in
  Alcotest.(check (list int)) "minimal" [ 10 ] small;
  (* 1 initial check + 3 chunk-phase calls + 1 singles-phase call; the
     stale-length bug added a wasted empty-candidate call. *)
  Util.checki "no budget wasted on oversized chunks" 5 !calls

let test_shrink_noop_on_passing () =
  let b = fig3 ~quantum:8 ~pris:[ 1; 1 ] in
  let passing = [ 0; 0; 0; 1 ] in
  Alcotest.(check (list int))
    "unchanged" passing
    (Shrink.shrink b.scenario passing)

let test_bivalence_horizon_fig3 () =
  let probe quantum =
    let b = fig3 ~quantum ~pris:[ 1; 1 ] in
    Bivalence.probe ~max_runs:100_000 ~scenario:b.scenario ~decision:b.last_decision ()
  in
  let p1 = probe 1 and p8 = probe 8 in
  Util.checkb "both values reachable at Q=1" (List.length p1.decisions = 2);
  Util.checkb "horizon shrinks with quantum"
    (p8.horizon < p1.horizon);
  Util.checkb "runs recorded" (p1.runs > 0 && p8.runs > 0)

let test_bivalence_univalent_case () =
  (* A scenario with a single proposer is univalent: horizon 0. *)
  let b = fig3 ~quantum:8 ~pris:[ 1 ] in
  let p = Bivalence.probe ~scenario:b.scenario ~decision:b.last_decision () in
  Util.checki "horizon" 0 p.horizon;
  Util.checki "one decision" 1 (List.length p.decisions)

let () =
  Alcotest.run "adversary"
    [
      ( "explore",
        [
          Alcotest.test_case "finds fig3 bug" `Quick test_explore_finds_fig3_bug;
          Alcotest.test_case "exhaustive flag" `Quick test_explore_exhaustive_flag;
          Alcotest.test_case "preemption bound" `Quick test_preemption_bound_restricts;
          Alcotest.test_case "respects check" `Quick test_explore_respects_check;
          Alcotest.test_case "iter_schedules" `Quick test_iter_schedules_coverage;
          Alcotest.test_case "random deterministic" `Quick test_random_runs_deterministic;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "adjacent seeds disjoint" `Quick
            test_adjacent_campaign_seeds_disjoint;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_sample_deterministic_across_jobs;
          Alcotest.test_case "all strategies find fig3" `Quick test_strategies_find_fig3;
          Alcotest.test_case "strategy names" `Quick test_randsched_of_name;
        ] );
      ( "stagger",
        [
          Alcotest.test_case "legal traces" `Quick test_stagger_max_interleave_legal;
          Alcotest.test_case "interleaves densely" `Quick test_stagger_interleaves_more_than_rr;
          Alcotest.test_case "preempt after rmw" `Quick test_preempt_after_rmw_triggers;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_roundtrip;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "replay reproduces" `Quick test_schedule_replay_reproduces;
          Alcotest.test_case "replay skips unrunnable" `Quick
            test_replay_skips_unrunnable_entries;
          Alcotest.test_case "save/load" `Quick test_schedule_save_load;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "chunk size not stale" `Quick
            test_shrink_chunk_size_not_stale;
          Alcotest.test_case "noop on passing" `Quick test_shrink_noop_on_passing;
        ] );
      ( "bivalence",
        [
          Alcotest.test_case "horizon vs quantum" `Quick test_bivalence_horizon_fig3;
          Alcotest.test_case "univalent case" `Quick test_bivalence_univalent_case;
        ] );
    ]
