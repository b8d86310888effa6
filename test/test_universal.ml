open Hwf_sim
open Hwf_core
open Hwf_adversary
open Hwf_workload

(* The universal construction and the derived wait-free objects (E10). *)

let uni_layout n pris = ignore n; List.map (fun p -> (0, p)) pris

let run_uni ~pris ~seed bodies_of =
  let layout = uni_layout (List.length pris) pris in
  let config = Layout.to_config ~quantum:3000 layout in
  let n = List.length pris in
  let bodies = bodies_of config n in
  Util.run ~step_limit:5_000_000 ~config ~policy:(Policy.random ~seed) bodies

let test_counter_uniprocessor () =
  (* N increments over Fig. 3 consensus cells: results are 1..N. *)
  let s = Scenarios.universal_counter_uni ~name:"uc" ~quantum:3000 ~pris:[ 1; 1; 2; 3 ] in
  Util.expect_ok "counter" (Explore.sample ~strategy:Randsched.Naive
      ~runs:40 ~step_limit:4_000_000 ~seed:31 s)

let test_counter_exhaustive_small () =
  let s = Scenarios.universal_counter_uni ~name:"uc2" ~quantum:3000 ~pris:[ 1; 1 ] in
  Util.expect_ok "counter pb=2"
    (Explore.explore ~preemption_bound:2 ~max_runs:300_000 ~step_limit:4_000_000 s)

let test_queue_over_multiprocessor_consensus () =
  (* The Theorem 4 payoff: N=6 >> P=2 processes, C=2 base objects. *)
  let layout = Layout.banded ~processors:2 ~levels:2 ~per_level:1 @ [ (0, 1); (1, 1) ] in
  (* normalize: Layout lists must be plain (processor, priority) tuples *)
  let s =
    Scenarios.universal_queue ~name:"uq" ~quantum:5000 ~consensus_number:2
      ~layout ~ops_per:1
  in
  Util.expect_ok "queue over Fig 7"
    (Explore.sample ~strategy:Randsched.Naive ~runs:25 ~step_limit:20_000_000 ~seed:32 s)

let test_stack_semantics_sequential () =
  let out = ref [] in
  let r =
    run_uni ~pris:[ 1 ] ~seed:0 (fun _config n ->
        [|
          (fun () ->
            let st = Wf_objects.stack ~name:"s" ~n ~factory:(Wf_objects.uni_factory ()) in
            Eff.invocation "ops" (fun () ->
                Wf_objects.push st ~pid:0 1;
                Wf_objects.push st ~pid:0 2;
                out := Wf_objects.pop st ~pid:0 :: !out;
                out := Wf_objects.pop st ~pid:0 :: !out;
                out := Wf_objects.pop st ~pid:0 :: !out));
        |])
  in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Alcotest.(check (list (option int))) "LIFO" [ Some 2; Some 1; None ] (List.rev !out)

let test_register_last_write_wins () =
  let out = ref (-1) in
  let r =
    run_uni ~pris:[ 1 ] ~seed:0 (fun _config n ->
        [|
          (fun () ->
            let reg =
              Wf_objects.register ~name:"r" ~n ~init:0 ~factory:(Wf_objects.uni_factory ())
            in
            Eff.invocation "ops" (fun () ->
                Wf_objects.set reg ~pid:0 5;
                Wf_objects.set reg ~pid:0 9;
                out := Wf_objects.read reg ~pid:0));
        |])
  in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Util.checki "last write" 9 !out

let test_queue_fifo_sequential () =
  let out = ref [] in
  let r =
    run_uni ~pris:[ 1 ] ~seed:0 (fun _config n ->
        [|
          (fun () ->
            let q = Wf_objects.queue ~name:"q" ~n ~factory:(Wf_objects.uni_factory ()) in
            Eff.invocation "ops" (fun () ->
                Wf_objects.enqueue q ~pid:0 10;
                Wf_objects.enqueue q ~pid:0 20;
                Wf_objects.enqueue q ~pid:0 30;
                out := Wf_objects.dequeue q ~pid:0 :: !out;
                out := Wf_objects.dequeue q ~pid:0 :: !out;
                Wf_objects.enqueue q ~pid:0 40;
                out := Wf_objects.dequeue q ~pid:0 :: !out;
                out := Wf_objects.dequeue q ~pid:0 :: !out;
                out := Wf_objects.dequeue q ~pid:0 :: !out));
        |])
  in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Alcotest.(check (list (option int)))
    "FIFO" [ Some 10; Some 20; Some 30; Some 40; None ] (List.rev !out)

let test_helping_guarantees_progress () =
  (* A process whose proposals always lose still completes: the helper
     mechanism appends its announced op. Starve p1 by always preferring
     p0 except when only p1 can run. *)
  let pris = [ 1; 1 ] in
  let layout = uni_layout 2 pris in
  let config = Layout.to_config ~quantum:3000 layout in
  let results = Array.make 2 (-1) in
  let c = Wf_objects.counter ~name:"c" ~n:2 ~factory:(Wf_objects.uni_factory ()) in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "incr" (fun () -> results.(pid) <- Wf_objects.incr c ~pid))
  in
  let policy = Policy.prefer [ 0 ] ~fallback:Policy.first in
  let r = Util.run ~step_limit:5_000_000 ~config ~policy bodies in
  Util.checkb "both finished" (Array.for_all Fun.id r.finished);
  let sorted = Array.copy results in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "1..2" [| 1; 2 |] sorted

let test_snapshot_sequential () =
  let out = ref [||] in
  let r =
    run_uni ~pris:[ 1 ] ~seed:0 (fun _config n ->
        let s =
          Wf_objects.snapshot ~name:"snap" ~n ~segments:3 ~init:0
            ~factory:(Wf_objects.uni_factory ())
        in
        [|
          (fun () ->
            Eff.invocation "ops" (fun () ->
                Wf_objects.update s ~pid:0 ~segment:1 7;
                Wf_objects.update s ~pid:0 ~segment:2 9;
                out := Wf_objects.scan s ~pid:0));
        |])
  in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Alcotest.(check (array int)) "scan" [| 0; 7; 9 |] !out

let test_snapshot_concurrent_consistent () =
  (* Scans never observe a torn pair: p1 writes (1,1) then (2,2) to two
     segments; every scan sees equal segment values or an in-between
     single update, never (2,1). *)
  let ok = ref true in
  for seed = 0 to 30 do
    let pris = [ 1; 1 ] in
    let layout = uni_layout 2 pris in
    let config = Hwf_workload.Layout.to_config ~quantum:3000 layout in
    let s =
      Wf_objects.snapshot ~name:"snap" ~n:2 ~segments:2 ~init:0
        ~factory:(Wf_objects.uni_factory ())
    in
    let scans = ref [] in
    let bodies =
      [|
        (fun () ->
          for round = 1 to 2 do
            Eff.invocation "wr" (fun () ->
                Wf_objects.update s ~pid:0 ~segment:0 round;
                Wf_objects.update s ~pid:0 ~segment:1 round)
          done);
        (fun () ->
          for _ = 1 to 3 do
            Eff.invocation "scan" (fun () ->
                scans := Wf_objects.scan s ~pid:1 :: !scans)
          done);
      |]
    in
    let r = Util.run ~step_limit:4_000_000 ~config ~policy:(Policy.random ~seed) bodies in
    if not (Array.for_all Fun.id r.finished) then ok := false;
    List.iter
      (fun snap ->
        match snap with
        | [| a; b |] -> if a < b then ok := false (* segment 0 is written first *)
        | _ -> ok := false)
      !scans
  done;
  Util.checkb "no torn snapshot observed" !ok

let test_hw_factory_baseline () =
  let s_check () =
    let config = Util.uni_config ~quantum:1 [ 1; 1; 1 ] in
    let c = Wf_objects.counter ~name:"c" ~n:3 ~factory:(Wf_objects.hw_factory ()) in
    let results = Array.make 3 (-1) in
    let bodies =
      Array.init 3 (fun pid () ->
          Eff.invocation "incr" (fun () -> results.(pid) <- Wf_objects.incr c ~pid))
    in
    let r = Util.run ~config ~policy:(Policy.random ~seed:9) bodies in
    Util.checkb "finished" (Array.for_all Fun.id r.finished);
    let sorted = Array.copy results in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "1..3" [| 1; 2; 3 |] sorted
  in
  (* hardware consensus needs no quantum at all *)
  s_check ()

let test_ops_count_and_peek () =
  let r = ref 0 in
  let run =
    run_uni ~pris:[ 1 ] ~seed:0 (fun _config n ->
        let c = Wf_objects.counter ~name:"c" ~n ~factory:(Wf_objects.uni_factory ()) in
        [|
          (fun () ->
            Eff.invocation "ops" (fun () ->
                ignore (Wf_objects.incr c ~pid:0);
                ignore (Wf_objects.incr c ~pid:0);
                r := Wf_objects.get c ~pid:0));
        |])
  in
  Util.checkb "finished" (Array.for_all Fun.id run.finished);
  Util.checki "value" 2 !r

let () =
  Alcotest.run "universal"
    [
      ( "objects",
        [
          Alcotest.test_case "stack LIFO" `Quick test_stack_semantics_sequential;
          Alcotest.test_case "queue FIFO" `Quick test_queue_fifo_sequential;
          Alcotest.test_case "register" `Quick test_register_last_write_wins;
          Alcotest.test_case "snapshot sequential" `Quick test_snapshot_sequential;
          Alcotest.test_case "snapshot concurrent" `Quick test_snapshot_concurrent_consistent;
          Alcotest.test_case "ops count / peek" `Quick test_ops_count_and_peek;
          Alcotest.test_case "hw factory baseline" `Quick test_hw_factory_baseline;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "counter uniprocessor" `Quick test_counter_uniprocessor;
          Alcotest.test_case "counter exhaustive" `Slow test_counter_exhaustive_small;
          Alcotest.test_case "queue over Fig 7" `Slow test_queue_over_multiprocessor_consensus;
          Alcotest.test_case "helping progress" `Quick test_helping_guarantees_progress;
        ] );
    ]
