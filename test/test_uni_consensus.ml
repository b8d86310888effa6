open Hwf_sim
open Hwf_adversary
open Hwf_workload

(* Theorem 1 (E3): the Fig. 3 algorithm is correct on hybrid uniprocessors
   once Q >= 8, and breakable below. *)

let built ~quantum ~pris =
  Scenarios.consensus ~name:"fig3" ~impl:Scenarios.Fig3 ~quantum
    ~layout:(List.map (fun p -> (0, p)) pris)

let test_exhaustive_2p_q8 () =
  let b = built ~quantum:8 ~pris:[ 1; 1 ] in
  let o = Explore.explore b.scenario in
  Util.expect_ok "2 procs Q=8" o;
  Util.checkb "exhaustive" o.exhaustive

let test_exhaustive_2p_mixed_priorities () =
  let b = built ~quantum:8 ~pris:[ 1; 2 ] in
  let o = Explore.explore b.scenario in
  Util.expect_ok "2 procs mixed" o;
  Util.checkb "exhaustive" o.exhaustive

let test_3p_same_priority () =
  let b = built ~quantum:8 ~pris:[ 1; 1; 1 ] in
  Util.expect_ok "3 procs same pri"
    (Explore.explore ~preemption_bound:4 ~max_runs:500_000 b.scenario)

let test_3p_three_levels () =
  let b = built ~quantum:8 ~pris:[ 1; 2; 3 ] in
  Util.expect_ok "3 procs 3 levels"
    (Explore.explore ~preemption_bound:4 ~max_runs:500_000 b.scenario)

let test_4p_banded () =
  let b = built ~quantum:8 ~pris:[ 1; 1; 2; 2 ] in
  Util.expect_ok "4 procs banded"
    (Explore.explore ~preemption_bound:3 ~max_runs:500_000 b.scenario)

(* The counterexample side: Q < 8 admits disagreement (Fig. 4 situation). *)
let test_q1_breaks () =
  let b = built ~quantum:1 ~pris:[ 1; 1 ] in
  Util.expect_fail "Q=1" (Explore.explore b.scenario)

let test_q2_breaks () =
  let b = built ~quantum:2 ~pris:[ 1; 1; 1 ] in
  Util.expect_fail "Q=2, 3 procs"
    (Explore.explore ~preemption_bound:4 ~max_runs:500_000 b.scenario)

let test_axiom2_off_breaks () =
  (* E11: dropping Axiom 2 restores Herlihy's hierarchy — the read/write
     algorithm must fail. *)
  let layout = [ (0, 1); (0, 1) ] in
  let config = Layout.to_config ~axiom2:false ~quantum:8 layout in
  let b = built ~quantum:8 ~pris:[ 1; 1 ] in
  let scenario = Explore.{ b.scenario with config } in
  Util.expect_fail "axiom2 off" (Explore.explore scenario)

let test_statement_count () =
  (* decide is exactly 8 statements, solo. *)
  let config = Util.uni_config ~quantum:8 [ 1 ] in
  let obj = Hwf_core.Uni_consensus.make "c" in
  let bodies =
    [| (fun () -> Eff.invocation "d" (fun () -> ignore (Hwf_core.Uni_consensus.decide obj 7))) |]
  in
  let r = Util.run ~config ~policy:Policy.first bodies in
  Util.checki "8 statements" 8 (Trace.statements r.trace)

let test_read_semantics () =
  let config = Util.uni_config ~quantum:8 [ 1 ] in
  let obj = Hwf_core.Uni_consensus.make "c" in
  let out = ref (None, None) in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "d" (fun () ->
            let before = Hwf_core.Uni_consensus.read obj in
            let _ = Hwf_core.Uni_consensus.decide obj 5 in
            out := (before, Hwf_core.Uni_consensus.read obj)));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  Alcotest.(check (pair (option int) (option int))) "read" (None, Some 5) !out

(* Wait-freedom: every process decides within 8 of its own statements
   under any schedule (sampled). *)
let prop_own_steps_bounded =
  Util.qtest ~count:80 "each decide costs exactly 8 own statements"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let b = built ~quantum:8 ~pris:[ 1; 1; 2 ] in
      let instance = b.scenario.Explore.make () in
      let r =
        Engine.run ~config:b.scenario.Explore.config ~policy:(Policy.random ~seed)
          instance.Explore.programs
      in
      Array.for_all Fun.id r.finished && Array.for_all (fun s -> s = 8) r.own_steps)

(* Validity under volume. *)
let prop_agreement_random_layouts =
  Util.qtest ~count:60 "agreement across random priority mixes"
    QCheck2.Gen.(tup2 (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let pris = List.init n (fun _ -> 1 + Random.State.int st 3) in
      let b = built ~quantum:8 ~pris in
      let o = Explore.sample ~strategy:Randsched.Naive ~runs:30 ~seed b.scenario in
      o.counterexample = None)

let () =
  Alcotest.run "uni_consensus"
    [
      ( "theorem1",
        [
          Alcotest.test_case "exhaustive 2p Q=8" `Quick test_exhaustive_2p_q8;
          Alcotest.test_case "exhaustive mixed priorities" `Quick
            test_exhaustive_2p_mixed_priorities;
          Alcotest.test_case "3p same priority" `Slow test_3p_same_priority;
          Alcotest.test_case "3p three levels" `Quick test_3p_three_levels;
          Alcotest.test_case "4p banded" `Slow test_4p_banded;
          Alcotest.test_case "statement count" `Quick test_statement_count;
          Alcotest.test_case "read semantics" `Quick test_read_semantics;
        ] );
      ( "lower",
        [
          Alcotest.test_case "Q=1 breaks" `Quick test_q1_breaks;
          Alcotest.test_case "Q=2 breaks (3 procs)" `Slow test_q2_breaks;
          Alcotest.test_case "axiom2 off breaks" `Quick test_axiom2_off_breaks;
        ] );
      ("props", [ prop_own_steps_bounded; prop_agreement_random_layouts ]);
    ]
