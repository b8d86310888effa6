open Hwf_core
open Hwf_adversary
open Hwf_workload

(* Fig. 7 / Theorem 4 (E5, E7): agreement, validity, wait-freedom and the
   access-failure accounting of Lemmas 2/3. *)

let generous_q = 3000

let mc ~quantum ~consensus_number ~layout =
  Scenarios.consensus ~name:"mc" ~impl:(Scenarios.Fig7 { consensus_number }) ~quantum
    ~layout

let test_make_validation () =
  let layout = Layout.uniform ~processors:3 ~per_processor:1 in
  let config = Layout.to_config ~quantum:10 layout in
  Alcotest.check_raises "C >= P"
    (Invalid_argument "Multi_consensus.make: consensus_number < processors") (fun () ->
      ignore (Multi_consensus.make ~config ~name:"m" ~consensus_number:2 ()))

let test_level_constant () =
  let layout = Layout.uniform ~processors:2 ~per_processor:3 in
  let config = Layout.to_config ~quantum:10 layout in
  let obj = Multi_consensus.make ~config ~name:"m" ~consensus_number:2 () in
  Util.checki "K" 0 (Multi_consensus.k obj);
  Util.checki "L" (Bounds.levels ~m:3 ~p:2 ~k:0) (Multi_consensus.levels obj);
  let obj2 = Multi_consensus.make ~config ~name:"m2" ~consensus_number:4 () in
  Util.checki "K=P at C=2P" 2 (Multi_consensus.k obj2);
  let obj3 = Multi_consensus.make ~config ~name:"m3" ~consensus_number:40 () in
  Util.checki "K capped at P" 2 (Multi_consensus.k obj3)

let random_ok ?(runs = 60) ~quantum ~consensus_number ~layout ~seed () =
  let b = mc ~quantum ~consensus_number ~layout in
  let o = Explore.sample ~strategy:Randsched.Naive ~runs ~step_limit:4_000_000 ~seed b.scenario in
  Util.expect_ok "mc random" o

let test_p2_c2_uniform () =
  random_ok ~quantum:generous_q ~consensus_number:2
    ~layout:(Layout.uniform ~processors:2 ~per_processor:2)
    ~seed:21 ()

let test_p2_c3_uniform () =
  random_ok ~quantum:generous_q ~consensus_number:3
    ~layout:(Layout.uniform ~processors:2 ~per_processor:2)
    ~seed:22 ()

let test_p2_c4_banded () =
  random_ok ~quantum:generous_q ~consensus_number:4
    ~layout:(Layout.banded ~processors:2 ~levels:2 ~per_level:1)
    ~seed:23 ()

let test_p3_c3 () =
  random_ok ~runs:25 ~quantum:6000 ~consensus_number:3
    ~layout:(Layout.uniform ~processors:3 ~per_processor:2)
    ~seed:24 ()

let test_p3_c5_mixed () =
  random_ok ~runs:25 ~quantum:6000 ~consensus_number:5
    ~layout:(Layout.banded ~processors:3 ~levels:2 ~per_level:1)
    ~seed:25 ()

let test_pure_priority_mode () =
  (* E12: the same algorithm under a pure-priority layout. *)
  random_ok ~quantum:generous_q ~consensus_number:2
    ~layout:(Layout.distinct_priorities ~processors:2 ~per_processor:3)
    ~seed:26 ()

let test_single_processor_degenerate () =
  (* P = 1: consensus from 1-consensus objects on one processor. *)
  random_ok ~quantum:generous_q ~consensus_number:1
    ~layout:(Layout.uniform ~processors:1 ~per_processor:3)
    ~seed:27 ()

let test_exhaustive_two_processes () =
  (* One process per processor, one context switch allowed: fully
     exhaustive (824 schedules). A pb=2 pass is also exhaustive at
     ~339k schedules and is recorded in EXPERIMENTS.md (E5); it is too
     slow for the suite. *)
  let b = mc ~quantum:generous_q ~consensus_number:2 ~layout:[ (0, 1); (1, 1) ] in
  let o =
    Explore.explore ~preemption_bound:1 ~max_runs:5_000 ~step_limit:2_000_000 b.scenario
  in
  Util.expect_ok "pb=1 exhaustive" o;
  Util.checkb "exhaustive" o.exhaustive

let test_explore_small () =
  let b =
    mc ~quantum:generous_q ~consensus_number:2
      ~layout:[ (0, 1); (1, 1); (1, 1) ]
  in
  Util.expect_ok "pb=2 exploration"
    (Explore.explore ~preemption_bound:2 ~max_runs:25_000 ~step_limit:3_000_000
       b.scenario)

(* Lemma 2 / Lemma 3 accounting under adversarial pressure (E7). *)
let test_af_bounds_under_stagger () =
  let layout = Layout.uniform ~processors:2 ~per_processor:3 in
  let m = 3 and p = 2 in
  for seed = 0 to 9 do
    let s =
      Scenarios.run_multi ~quantum:generous_q ~consensus_number:2 ~layout
        ~policy:(Stagger.exhaustion_pressure ~seed ~var_prefix:"mc.Cons" ())
        ()
    in
    Util.checkb "finished" s.finished;
    Util.checkb "well-formed" s.well_formed;
    Util.checkb "agreed" s.agreed;
    Util.checki "no exhaustion at generous quantum" 0 s.exhausted;
    let af = List.length s.access_failures in
    let k = 0 in
    let bound =
      Bounds.af_diff_bound ~m
      + Bounds.af_same_bound ~m ~p ~k ~l:(Bounds.levels ~m ~p ~k)
    in
    Util.checkb
      (Printf.sprintf "AF %d within Lemma 3 bound %d" af bound)
      (af <= bound);
    (match s.deciding_level with
    | Some l -> Util.checkb "deciding level within L" (l <= s.levels)
    | None -> Alcotest.fail "no deciding level at generous quantum")
  done

let test_statements_polynomial () =
  (* E9: per-process work scales with L (polynomial), not exponentially. *)
  let steps p =
    let layout = Layout.uniform ~processors:p ~per_processor:1 in
    let s =
      Scenarios.run_multi ~step_limit:20_000_000 ~quantum:20_000 ~consensus_number:p
        ~layout
        ~policy:(Hwf_sim.Policy.round_robin ())
        ()
    in
    Util.checkb "finished" s.finished;
    s.max_own_steps
  in
  let s2 = steps 2 and s4 = steps 4 in
  (* L(P, K=0, M=1) = (1+P) + P^2 + 1; statement growth should stay within
     a polynomial factor, far below 2^P blowup. *)
  Util.checkb
    (Printf.sprintf "P=4 work (%d) < 16x P=2 work (%d)" s4 s2)
    (s4 < 16 * s2)

let () =
  Alcotest.run "multi_consensus"
    [
      ( "construction",
        [
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "level constant" `Quick test_level_constant;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "P=2 C=2 uniform" `Quick test_p2_c2_uniform;
          Alcotest.test_case "P=2 C=3 uniform" `Quick test_p2_c3_uniform;
          Alcotest.test_case "P=2 C=4 banded" `Quick test_p2_c4_banded;
          Alcotest.test_case "P=3 C=3" `Slow test_p3_c3;
          Alcotest.test_case "P=3 C=5 mixed" `Slow test_p3_c5_mixed;
          Alcotest.test_case "pure priority mode" `Quick test_pure_priority_mode;
          Alcotest.test_case "P=1 degenerate" `Quick test_single_processor_degenerate;
          Alcotest.test_case "small exploration" `Slow test_explore_small;
          Alcotest.test_case "exhaustive two processes" `Slow test_exhaustive_two_processes;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "AF bounds under stagger" `Slow test_af_bounds_under_stagger;
          Alcotest.test_case "polynomial statements" `Slow test_statements_polynomial;
        ] );
    ]
