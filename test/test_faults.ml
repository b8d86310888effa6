open Hwf_sim
open Hwf_faults

(* The fault-injection subsystem: plan sweeps, the wait-freedom
   certifier, its negative control, and shrink-on-faulted-runs. *)

let test_fig3_exhaustive_sweep () =
  (* Fig. 3 takes exactly 8 own statements per process; the exhaustive
     single-victim sweep is 3 victims x crash points 0..8, and every
     plan (plus chaos) must certify. *)
  let subject = Suite.fig3 () in
  let solo = Certify.solo_own_steps subject in
  Alcotest.(check (array int)) "solo = 8 each" [| 8; 8; 8 |] solo;
  let crash = Sweep.crash_points ~victims:[ 0; 1; 2 ] ~solo () in
  Util.checki "27 crash plans" 27 (List.length crash);
  let report = Certify.certify subject (Plan.none :: crash) in
  Util.checkb "certified" (Certify.certified report);
  Util.checki "all plans passed" 28 report.Certify.passed;
  Util.checki "worst own-steps is the Thm 1 bound" 8 report.Certify.worst_own_steps

let test_fig7_bound () =
  (* Fig. 7's own-step bound is c.L, with L the level count of the
     object the subject certifies: an object built on the subject's
     configuration with its consensus number (2). *)
  let subject = Suite.fig7 () in
  let obj =
    Hwf_core.Multi_consensus.make ~config:subject.Certify.config ~name:"f7.bound"
      ~consensus_number:2 ()
  in
  Util.checki "step_bound = c.L"
    (Hwf_core.Bounds.fig7_stmt_const * Hwf_core.Multi_consensus.levels obj)
    subject.Certify.step_bound

let test_campaigns_certify () =
  (* The standard quick campaign certifies every positive subject. *)
  List.iter
    (fun subject ->
      let plans = Suite.campaign ~quick:true ~seed:41 subject in
      let report = Certify.certify subject plans in
      if not (Certify.certified report) then
        Alcotest.failf "%a" Certify.pp_report report)
    (Suite.positive_subjects ~seed:41 ())

let test_negative_control () =
  (* Suspending Axiom 2 under the hand-derived schedule must produce a
     disagreement — deterministically — and the very same subject under
     the fault-free plan must pass. This is the certifier's teeth. *)
  let subject = Suite.negative () in
  let report = Certify.certify subject [ Suite.negative_plan ] in
  Util.checkb "rejected" (not (Certify.certified report));
  (match report.Certify.failures with
  | [ f ] ->
    Util.checkb "failure is a disagreement" (Util.contains f.Certify.message "disagreement");
    (* the shrunk schedule still reproduces the failure on replay *)
    (match Certify.replay_judge subject Suite.negative_plan f.Certify.schedule with
    | Certify.Fail _ -> ()
    | Certify.Pass _ -> Alcotest.fail "shrunk schedule does not reproduce");
    Util.checkb "shrunk no longer than original"
      (List.length f.Certify.schedule <= f.Certify.shrunk_from)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  let clean = Certify.certify subject [ Plan.none ] in
  Util.checkb "same subject passes with Axiom 2 enforced" (Certify.certified clean)

let test_determinism () =
  (* Same subject, same seed, same plans => structurally equal reports. *)
  let subject = Suite.fig5 () in
  let plans = Suite.campaign ~quick:true ~seed:7 subject in
  let plans' = Suite.campaign ~quick:true ~seed:7 subject in
  Util.checkb "same plans" (plans = plans');
  let r1 = Certify.certify subject plans in
  let r2 = Certify.certify subject plans in
  Util.checkb "same report" (r1 = r2)

let test_certify_all () =
  (* The one campaign behind [hybridsim faults] and E16: each chosen
     subject's row is [Certify.certify] over its campaign, and the
     negative control comes back rejected. *)
  let c = Suite.certify_all ~quick:true ~seed:7 ~only:[ "fig5"; "fig3" ] ~negative:true () in
  Alcotest.(check (list string))
    "subjects in suite order" [ "fig3"; "fig5" ]
    (List.map (fun (r : Suite.row) -> r.report.Certify.subject) c.positives);
  List.iter
    (fun (r : Suite.row) ->
      let plans = Suite.campaign ~quick:true ~seed:7 r.subject in
      Util.checkb "same report" (r.report = Certify.certify r.subject plans);
      Util.checkb "certified" r.ok;
      Alcotest.(check string) "verdict" "CERTIFIED" r.verdict)
    c.positives;
  (match c.negative with
  | Some r ->
    Util.checkb "control rejected" r.ok;
    Alcotest.(check string) "control verdict" "REJECTED (expected)" r.verdict
  | None -> Alcotest.fail "negative control not run");
  Util.checki "coverage counts every cell"
    (List.fold_left (fun n (r : Suite.row) -> n + r.report.Certify.plans) 1 c.positives)
    c.coverage.Hwf_resil.Resil.cells_done

(* Behaviour pins for the suite's program bodies: a digest of the JSONL
   trace of each subject's run under the fault-free plan and under its
   campaign's first crash plan, plus the negative control's failure
   message. Object names, statement order and verdict wording all feed
   these, so a change to how a body is built shows up here. *)

let digest8 s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let trace_digest subject plan =
  let _, r, _ = Certify.run_plan subject plan in
  digest8 (Hwf_obs.Jsonl.trace_to_string r.Engine.trace)

let first_crash_plan subject =
  List.find (fun p -> p.Plan.crashes <> []) (Suite.campaign ~seed:41 subject)

let body_pins =
  [
    ("fig3", "db9528cd", "7e5c130b");
    ("fig3-time", "a6d6b440", "0d77ac89");
    ("fig5", "6490a70a", "01a98571");
    ("fig7", "6b89f57d", "783efcc7");
    ("universal", "943f7d85", "9220eb5a");
    ("fig3-no-axiom2", "ab38ac07", "b269911d");
  ]

let negative_message_pin = "disagreement: [100; 101]"

let test_body_pins () =
  let subjects = Suite.positive_subjects ~seed:41 () @ [ Suite.negative () ] in
  let got =
    List.map
      (fun s ->
        (s.Certify.name, trace_digest s Plan.none, trace_digest s (first_crash_plan s)))
      subjects
  in
  Alcotest.(check (list (triple string string string))) "trace digests" body_pins got;
  match Certify.run_plan (Suite.negative ()) Suite.negative_plan with
  | Certify.Fail m, _, _ -> Alcotest.(check string) "negative message" negative_message_pin m
  | Certify.Pass _, _, _ -> Alcotest.fail "negative control passed"

(* Behaviour pin for the faulted engine: one MD5 per positive subject
   over the JSONL traces of every judged run of its quick campaign, in
   plan order. Nearly every campaign plan crashes a victim, so this pins
   where each victim parks and everything the survivors do after. *)
let campaign_pins =
  [
    ("fig3", "e222c952415643a2e1f9a1698821a6d7");
    ("fig3-time", "5c8fc25535d619d4aff2e4baf2343474");
    ("fig5", "375bd528e6c836c21bd6722e0b17683d");
    ("fig7", "6930e6cf52fac34957a8e2b598252afd");
    ("universal", "e01ef8f197f784639919613b6411d467");
  ]

let test_campaign_pins () =
  let got =
    List.map
      (fun s ->
        let b = Buffer.create 65536 in
        List.iter
          (fun plan ->
            let _, r, _ = Certify.run_plan s plan in
            Buffer.add_string b (Hwf_obs.Jsonl.trace_to_string r.Engine.trace))
          (Suite.campaign ~quick:true ~seed:41 s);
        (s.Certify.name, Digest.to_hex (Digest.string (Buffer.contents b))))
      (Suite.positive_subjects ~seed:41 ())
  in
  Alcotest.(check (list (pair string string))) "campaign trace digests" campaign_pins got

let test_blocked_by_victim_excuse () =
  (* A victim of strictly higher priority parked mid-invocation blocks
     its processor forever (Axiom 1); the certifier must excuse the
     starved survivor (Pass { blocked = true }) rather than blame the
     algorithm. *)
  let config = Util.uni_config ~quantum:8 [ 1; 2 ] in
  let work k pid () =
    Eff.invocation "work" (fun () ->
        for _ = 1 to k do
          Eff.local (Printf.sprintf "s%d" pid)
        done)
  in
  let make () =
    Certify.
      {
        programs = [| work 3 0; work 3 1 |];
        check = (fun ~survivors:_ _ -> Ok ());
      }
  in
  let subject =
    Certify.
      {
        name = "blocked";
        config;
        policy = (fun () -> Policy.by_priority);
        make;
        step_bound = 3;
        bound_desc = "3";
        step_limit = 1_000;
      }
  in
  let plan = Plan.crash_at ~victim:1 ~after:1 in
  let verdict, result, _ = Certify.run_plan subject plan in
  Util.checkb "victim parked" result.Engine.halted.(1);
  Util.checkb "run ends All_halted" (result.Engine.stop = Engine.All_halted);
  (match verdict with
  | Certify.Pass { blocked = true } -> ()
  | Certify.Pass { blocked = false } -> Alcotest.fail "survivor not seen as blocked"
  | Certify.Fail m -> Alcotest.failf "expected excused pass, got: %s" m);
  (* The same shape with EQUAL priorities is never excused; with the
     victim parked the survivor can run, so it must finish - and does. *)
  let config_eq = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let subject_eq = Certify.{ subject with config = config_eq } in
  match Certify.run_plan subject_eq plan with
  | Certify.Pass { blocked = false }, result, _ ->
    Util.checkb "equal-priority survivor finished" result.Engine.finished.(0)
  | Certify.Pass { blocked = true }, _, _ -> Alcotest.fail "equal priority wrongly excused"
  | Certify.Fail m, _, _ -> Alcotest.failf "equal-priority run failed: %s" m

let test_shrink_by_minimizes () =
  (* shrink_by against an arbitrary predicate: minimal failing sublist. *)
  let fails s = List.mem 3 s && List.mem 5 s in
  let shrunk = Hwf_adversary.Shrink.shrink_by ~fails [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "minimal" [ 3; 5 ] shrunk;
  (* non-failing input returned unchanged *)
  Alcotest.(check (list int)) "unchanged" [ 1; 2 ] (Hwf_adversary.Shrink.shrink_by ~fails [ 1; 2 ])

let test_jitter_cost_deterministic_and_clamped () =
  let h1 = Inject.jitter_hash ~seed:5 ~step:17 ~pid:2 in
  let h2 = Inject.jitter_hash ~seed:5 ~step:17 ~pid:2 in
  Util.checki "hash deterministic" h1 h2;
  Util.checkb "hash non-negative" (h1 >= 0);
  (* A faulted fig3-time run under Jitter costs is well-formed and
     replayable: identical decision sequences give identical traces. *)
  let subject = Suite.fig3_time () in
  let plan = Plan.(with_cost (Jitter 5) (crash_at ~victim:0 ~after:4)) in
  let _, r1, sched = Certify.run_plan subject plan in
  let inst = subject.Certify.make () in
  let r2 =
    Inject.replay ~step_limit:subject.Certify.step_limit ~plan
      ~config:subject.Certify.config ~schedule:sched inst.Certify.programs
  in
  Alcotest.(check (array int)) "replay reproduces own_steps" r1.Engine.own_steps
    r2.Engine.own_steps;
  Util.checkb "replay reproduces stop" (r1.Engine.stop = r2.Engine.stop)

let test_plan_composition () =
  let p =
    Plan.(
      layer (crash_at ~victim:0 ~after:2)
        (with_axiom2 (Windows { period = 10; off = 3; phase = 0 })
           (with_cost Slow (crash_at ~victim:1 ~after:0))))
  in
  Util.checki "crashes compose" 2 (List.length p.Plan.crashes);
  Util.checkb "cost kept" (p.Plan.cost = Plan.Slow);
  (match p.Plan.axiom2 with Plan.Windows _ -> () | _ -> Alcotest.fail "axiom2 lost");
  Util.checkb "label mentions crash" (Util.contains (Plan.to_string p) "crash");
  (* chaos plans never weaken Axiom 2 *)
  List.iter
    (fun seed ->
      let c = Plan.chaos ~seed ~n:4 ~max_after:10 in
      Util.checkb "chaos keeps axiom2" (c.Plan.axiom2 = Plan.Enforced))
    [ 0; 1; 2; 3; 4 ]

let () =
  Alcotest.run "faults"
    [
      ( "certifier",
        [
          Alcotest.test_case "fig3 exhaustive sweep" `Quick test_fig3_exhaustive_sweep;
          Alcotest.test_case "fig7 bound is c.L of its object" `Quick test_fig7_bound;
          Alcotest.test_case "campaigns certify" `Slow test_campaigns_certify;
          Alcotest.test_case "negative control rejected" `Quick test_negative_control;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "blocked-by-victim excuse" `Quick test_blocked_by_victim_excuse;
          Alcotest.test_case "body pins" `Quick test_body_pins;
          Alcotest.test_case "campaign trace pins" `Quick test_campaign_pins;
          Alcotest.test_case "one certification campaign" `Quick test_certify_all;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "shrink_by" `Quick test_shrink_by_minimizes;
          Alcotest.test_case "jitter determinism / replay" `Quick
            test_jitter_cost_deterministic_and_clamped;
          Alcotest.test_case "plan composition" `Quick test_plan_composition;
        ] );
    ]
