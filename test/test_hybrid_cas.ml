open Hwf_sim
open Hwf_core
open Hwf_adversary
open Hwf_workload

(* Fig. 5 / Theorem 2 (E4): linearizability of the hybrid uniprocessor
   C&S under exhaustive (context-bounded) and random scheduling. *)

let scen ~quantum ~pris ~script =
  Scenarios.hybrid_cas ~name:"h" ~quantum
    ~layout:(List.map (fun p -> (0, p)) pris)
    ~script

let q = 400 (* generous: covers the protected sequences incl. chain lag *)

let test_solo () =
  let config = Util.uni_config ~quantum:q [ 1; 2 ] in
  let obj = Hybrid_cas.make ~config ~name:"o" ~init:0 in
  let out = ref [] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "ops" (fun () ->
            out := `B (Hybrid_cas.cas obj ~pid:0 ~expected:0 ~desired:3) :: !out;
            out := `B (Hybrid_cas.cas obj ~pid:0 ~expected:0 ~desired:4) :: !out;
            out := `I (Hybrid_cas.read obj ~pid:0) :: !out;
            out := `B (Hybrid_cas.cas obj ~pid:0 ~expected:3 ~desired:3) :: !out;
            out := `I (Hybrid_cas.read obj ~pid:0) :: !out));
      (fun () -> ());
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  (match List.rev !out with
  | [ `B true; `B false; `I 3; `B true (* trivial *); `I 3 ] -> ()
  | _ -> Alcotest.fail "unexpected results");
  Util.checki "one append (trivial C&S does not append)" 1 (Hybrid_cas.appends obj)

let test_exhaustive_same_priority () =
  let s =
    scen ~quantum:q ~pris:[ 1; 1 ]
      ~script:[ [ Scenarios.Cas (0, 1); Scenarios.Cas (1, 2) ]; [ Scenarios.Cas (0, 5); Scenarios.Rd ] ]
  in
  Util.expect_ok "2p same pri" (Explore.explore ~preemption_bound:2 ~max_runs:500_000 s)

let test_exhaustive_two_levels () =
  let s =
    scen ~quantum:q ~pris:[ 1; 2 ]
      ~script:[ [ Scenarios.Cas (0, 1); Scenarios.Rd ]; [ Scenarios.Cas (0, 5); Scenarios.Cas (5, 6) ] ]
  in
  Util.expect_ok "2p two levels" (Explore.explore ~preemption_bound:2 ~max_runs:500_000 s)

let test_exhaustive_three_levels () =
  let s =
    scen ~quantum:q ~pris:[ 1; 2; 3 ]
      ~script:[ [ Scenarios.Cas (0, 1) ]; [ Scenarios.Cas (0, 5); Scenarios.Rd ]; [ Scenarios.Cas (5, 7) ] ]
  in
  Util.expect_ok "3 levels" (Explore.explore ~preemption_bound:2 ~max_runs:2_000_000 s)

let test_reader_heavy () =
  let s =
    scen ~quantum:q ~pris:[ 1; 1; 2 ]
      ~script:
        [ [ Scenarios.Rd; Scenarios.Rd ]; [ Scenarios.Cas (0, 2); Scenarios.Rd ]; [ Scenarios.Cas (0, 9); Scenarios.Cas (9, 10) ] ]
  in
  Util.expect_ok "reader heavy" (Explore.explore ~preemption_bound:2 ~max_runs:2_000_000 s)

(* Tag reuse: with N processes the tag space is 4N+2 per process and the
   selection rule (lines 8-10) must keep live cells from being reused.
   Long scripts force every process through several tag-space cycles. *)
let test_tag_reuse_stress () =
  let n = 2 in
  (* 2 procs, 15 ops each: each process cycles its 10-tag space 1.5x *)
  let script =
    List.init n (fun pid ->
        List.init 15 (fun k ->
            if k mod 3 = 2 then Scenarios.Rd
            else if k = 0 then Scenarios.Cas (0, (pid * 100) + 1)
            else Scenarios.Cas ((pid * 100) + k, (pid * 100) + k + 1)))
  in
  let s = scen ~quantum:q ~pris:[ 1; 1 ] ~script in
  Util.expect_ok "tag reuse random"
    (Explore.sample ~strategy:Randsched.Naive ~runs:150 ~step_limit:2_000_000 ~seed:41 s);
  Util.expect_ok "tag reuse pb=1"
    (Explore.explore ~preemption_bound:1 ~max_runs:300_000 ~step_limit:2_000_000 s)

let test_deeper_context_bound () =
  (* A pb=3 pass over the same-priority scenario: three paid preemptions
     cover every combination of "one preemption per protected sequence"
     the correctness argument allows, plus one extra. Capped (not
     exhaustive) to keep the suite's runtime bounded. *)
  let s =
    scen ~quantum:q ~pris:[ 1; 1 ]
      ~script:[ [ Scenarios.Cas (0, 1) ]; [ Scenarios.Cas (0, 5); Scenarios.Rd ] ]
  in
  Util.expect_ok "pb=3 deep"
    (Explore.explore ~preemption_bound:3 ~max_runs:60_000 ~step_limit:400_000 s)

let test_contended_mix () =
  (* High-contention generated workload across three levels. *)
  let pris = [ 1; 1; 2; 3 ] in
  let script =
    Hwf_workload.Opgen.cas_mix ~seed:9 ~n:4 ~ops_per:3 ~read_pct:30 ~contended_pct:60
  in
  let s = scen ~quantum:q ~pris ~script in
  Util.expect_ok "contended mix"
    (Explore.sample ~strategy:Randsched.Naive ~runs:60 ~step_limit:2_000_000 ~seed:42 s)

let prop_random_mixed =
  Util.qtest ~count:25 "random scripts, random priorities, random schedules"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 77 |] in
      let n = 3 + Random.State.int st 2 in
      let pris = List.init n (fun _ -> 1 + Random.State.int st 3) in
      let script = Scenarios.random_script ~seed ~n ~ops_per:2 in
      let s = scen ~quantum:q ~pris ~script in
      (Explore.sample ~strategy:Randsched.Naive
          ~runs:20 ~seed ~step_limit:400_000 s).counterexample = None)

(* O(V) scan: per-operation own statements grow linearly in V, not with N
   (E4b quantifies; here we sanity-check monotone, bounded growth). *)
let test_scan_cost_grows_with_v () =
  (* The O(V) cost shows when the list head belongs to a high level: a
     priority-V process appends first, then a priority-1 process must
     scan past V-1 stale head variables to find it. *)
  let cost v =
    let pris = [ 1; v ] in
    let config = Util.uni_config ~quantum:q pris in
    let obj = Hybrid_cas.make ~config ~name:"o" ~init:0 in
    let steps_p0 = ref 0 in
    let bodies =
      [|
        (fun () ->
          Eff.invocation "low" (fun () ->
              let t0 = Eff.now () in
              ignore (Hybrid_cas.cas obj ~pid:0 ~expected:1 ~desired:2);
              steps_p0 := Eff.now () - t0));
        (fun () ->
          Eff.invocation "high" (fun () ->
              ignore (Hybrid_cas.cas obj ~pid:1 ~expected:0 ~desired:1)));
      |]
    in
    (* run the high-priority process to completion first *)
    let policy = Policy.highest_pid in
    let r = Util.run ~config ~policy bodies in
    Util.checkb "finished" (Array.for_all Fun.id r.finished);
    !steps_p0
  in
  let c2 = cost 2 and c5 = cost 5 and c8 = cost 8 in
  Util.checkb (Printf.sprintf "V=5 (%d) costs more than V=2 (%d)" c5 c2) (c5 > c2);
  Util.checkb (Printf.sprintf "V=8 (%d) costs more than V=5 (%d)" c8 c5) (c8 > c5);
  (* linearity: the per-level increment is roughly constant *)
  let d1 = (c5 - c2) / 3 and d2 = (c8 - c5) / 3 in
  Util.checkb
    (Printf.sprintf "per-level cost stable (%d vs %d)" d1 d2)
    (abs (d1 - d2) <= max 4 (d1 / 2))

let test_no_preemption_cost_independent_of_n () =
  (* Solo op cost must not grow with the number of registered processes
     (it is O(V), not O(N)). *)
  let cost n =
    let pris = List.init n (fun _ -> 1) in
    let config = Util.uni_config ~quantum:q pris in
    let obj = Hybrid_cas.make ~config ~name:"o" ~init:0 in
    let bodies =
      Array.init n (fun pid () ->
          if pid = 0 then
            Eff.invocation "cas" (fun () ->
                ignore (Hybrid_cas.cas obj ~pid ~expected:0 ~desired:1))
          else ())
    in
    let r = Util.run ~config ~policy:Policy.first bodies in
    r.own_steps.(0)
  in
  Util.checki "cost at N=2 equals cost at N=8" (cost 2) (cost 8)

let () =
  Alcotest.run "hybrid_cas"
    [
      ("unit", [ Alcotest.test_case "solo semantics" `Quick test_solo ]);
      ( "linearizability",
        [
          Alcotest.test_case "exhaustive same priority" `Slow test_exhaustive_same_priority;
          Alcotest.test_case "exhaustive two levels" `Slow test_exhaustive_two_levels;
          Alcotest.test_case "exhaustive three levels" `Slow test_exhaustive_three_levels;
          Alcotest.test_case "reader heavy" `Slow test_reader_heavy;
          Alcotest.test_case "tag reuse stress" `Slow test_tag_reuse_stress;
          Alcotest.test_case "deeper context bound" `Slow test_deeper_context_bound;
          Alcotest.test_case "contended mix" `Quick test_contended_mix;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "O(V) scan" `Quick test_scan_cost_grows_with_v;
          Alcotest.test_case "independent of N" `Quick test_no_preemption_cost_independent_of_n;
        ] );
      ("props", [ prop_random_mixed ]);
    ]
