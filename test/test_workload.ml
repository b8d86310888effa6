open Hwf_workload

let test_uniform () =
  let l = Layout.uniform ~processors:3 ~per_processor:2 in
  Alcotest.(check int) "size" 6 (List.length l);
  Alcotest.(check int) "processors" 3 (Layout.processors l);
  Alcotest.(check int) "levels" 1 (Layout.levels l);
  Util.checkb "all priority 1" (List.for_all (fun (_, p) -> p = 1) l)

let test_distinct_priorities () =
  let l = Layout.distinct_priorities ~processors:2 ~per_processor:3 in
  Alcotest.(check int) "levels" 3 (Layout.levels l);
  let config = Layout.to_config ~quantum:1 l in
  Util.checkb "pure priority" (Hwf_sim.Config.is_pure_priority config)

let test_banded () =
  let l = Layout.banded ~processors:2 ~levels:3 ~per_level:2 in
  Alcotest.(check int) "size" 12 (List.length l);
  Alcotest.(check int) "levels" 3 (Layout.levels l);
  let on0 = List.filter (fun (c, _) -> c = 0) l in
  Alcotest.(check int) "6 on cpu0" 6 (List.length on0)

let test_random_layout_valid () =
  for seed = 0 to 20 do
    let l = Layout.random ~seed ~processors:3 ~levels:4 ~n:7 in
    Alcotest.(check int) "size" 7 (List.length l);
    let config = Layout.to_config ~quantum:2 l in
    Alcotest.(check int) "n" 7 (Hwf_sim.Config.n config)
  done

let test_random_deterministic () =
  let a = Layout.random ~seed:42 ~processors:2 ~levels:2 ~n:5 in
  let b = Layout.random ~seed:42 ~processors:2 ~levels:2 ~n:5 in
  Util.checkb "same layout" (a = b)

let test_random_script_shape () =
  let s = Scenarios.random_script ~seed:1 ~n:4 ~ops_per:5 in
  Alcotest.(check int) "4 processes" 4 (List.length s);
  Util.checkb "5 ops each" (List.for_all (fun ops -> List.length ops = 5) s);
  let s' = Scenarios.random_script ~seed:1 ~n:4 ~ops_per:5 in
  Util.checkb "deterministic" (s = s')

let test_consensus_builder_fig3_guard () =
  Alcotest.check_raises "multiprocessor rejected for Fig3"
    (Invalid_argument "Scenarios.consensus: Fig3 requires a uniprocessor layout")
    (fun () ->
      ignore
        (Scenarios.consensus ~name:"x" ~impl:Scenarios.Fig3 ~quantum:8
           ~layout:[ (0, 1); (1, 1) ]))

let test_run_multi_summary () =
  let layout = Layout.uniform ~processors:2 ~per_processor:1 in
  let s =
    Scenarios.run_multi ~quantum:2000 ~consensus_number:2 ~layout
      ~policy:(Hwf_sim.Policy.round_robin ())
      ()
  in
  Util.checkb "finished" s.finished;
  Util.checkb "agreed" s.agreed;
  Util.checkb "valid" s.valid;
  Util.checkb "well-formed" s.well_formed;
  Alcotest.(check int) "no exhaustion" 0 s.exhausted;
  Util.checkb "levels positive" (s.levels >= 1);
  Util.checkb "statements counted" (s.statements > 0)

(* Behaviour pins for the one-shot runs behind [hybridsim stats]/[cas]
   and the Table 1 benches: every summary field plus a digest of the
   JSONL trace, under round-robin. *)

let digest8 s = String.sub (Digest.to_hex (Digest.string s)) 0 8
let trace_digest t = digest8 (Hwf_obs.Jsonl.trace_to_string t)
let pairs = Fmt.(Dump.list (Dump.pair int int))

let test_run_multi_pin () =
  let s =
    Scenarios.run_multi ~quantum:8 ~consensus_number:2
      ~layout:(Layout.banded ~processors:2 ~levels:2 ~per_level:1)
      ~policy:(Hwf_sim.Policy.round_robin ())
      ()
  in
  let got =
    Fmt.str
      "fin=%b agr=%b val=%b exh=%d af=%a same=%a diff=%a ev=%d/%d dl=%a L=%d \
       stmts=%d own=%d wf=%b trace=%s"
      s.finished s.agreed s.valid s.exhausted pairs s.access_failures pairs s.af_same pairs
      s.af_diff s.af_same_events s.af_diff_events
      Fmt.(Dump.option int) s.deciding_level s.levels s.statements s.max_own_steps
      s.well_formed (trace_digest s.trace)
  in
  Alcotest.(check string) "run_multi"
    "fin=true agr=true val=true exh=0 af=[] same=[] diff=[] ev=0/0 dl=Some 1 L=15 \
     stmts=1576 own=783 wf=true trace=7fb9dd8f" got

let test_run_cas_pin () =
  let layout = [ (0, 1); (0, 2); (0, 3) ] in
  let s =
    Scenarios.run_cas ~quantum:600 ~layout
      ~script:(Scenarios.random_script ~seed:5 ~n:3 ~ops_per:3)
      ~policy:(Hwf_sim.Policy.round_robin ())
      ()
  in
  let st = s.cas_stats in
  let got =
    Fmt.str "fin=%b lin=%b af=%d/%d scan=%d worst=%d/%d ops=%d app=%d wf=%b trace=%s"
      s.cas_finished s.linearizable st.af_diff st.af_same st.scan_failures st.worst_af_diff
      st.worst_af_same st.ops st.appends s.cas_well_formed (trace_digest s.cas_trace)
  in
  Alcotest.(check string) "run_cas"
    "fin=true lin=true af=0/0 scan=0 worst=0/0 ops=9 app=1 wf=true trace=711449e9" got

let test_last_outputs_and_decision () =
  let b =
    Scenarios.consensus ~name:"lo" ~impl:Scenarios.Fig3 ~quantum:8
      ~layout:[ (0, 1); (0, 1) ]
  in
  let instance = b.scenario.Hwf_adversary.Explore.make () in
  let r =
    Hwf_sim.Engine.run ~config:b.scenario.Hwf_adversary.Explore.config
      ~policy:Hwf_sim.Policy.first instance.Hwf_adversary.Explore.programs
  in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  (match b.last_decision () with
  | Some v -> Util.checkb "valid decision" (v = 100 || v = 101)
  | None -> Alcotest.fail "no decision");
  let outs = b.last_outputs () in
  Util.checkb "both recorded" (Array.for_all Option.is_some outs)

let test_opgen_shapes () =
  let cas = Opgen.cas_mix ~seed:3 ~n:3 ~ops_per:10 ~read_pct:50 ~contended_pct:50 in
  Alcotest.(check int) "3 processes" 3 (List.length cas);
  Util.checkb "10 ops each" (List.for_all (fun l -> List.length l = 10) cas);
  let cas' = Opgen.cas_mix ~seed:3 ~n:3 ~ops_per:10 ~read_pct:50 ~contended_pct:50 in
  Util.checkb "deterministic" (cas = cas');
  (* read percentage is honored in expectation *)
  let all = List.concat (Opgen.cas_mix ~seed:4 ~n:4 ~ops_per:200 ~read_pct:100 ~contended_pct:0) in
  Util.checkb "read_pct=100 gives only reads"
    (List.for_all (function Scenarios.Rd -> true | Scenarios.Cas _ -> false) all);
  let q = Opgen.queue_mix ~seed:5 ~n:2 ~ops_per:50 ~enq_pct:0 in
  Util.checkb "enq_pct=0 gives only deqs"
    (List.for_all (List.for_all (fun op -> op = `Deq)) q);
  let enqs = Opgen.queue_mix ~seed:6 ~n:3 ~ops_per:20 ~enq_pct:100 |> List.concat in
  let values = List.filter_map (function `Enq v -> Some v | `Deq -> None) enqs in
  Alcotest.(check int) "unique enqueue values" (List.length values)
    (List.length (List.sort_uniq compare values));
  let c = Opgen.counter_mix ~seed:7 ~n:2 ~ops_per:30 ~read_pct:0 in
  Util.checkb "read_pct=0 gives only incrs"
    (List.for_all (List.for_all (fun op -> op = `Incr)) c)

let test_adversary_battery_legal () =
  (* Every policy in the battery produces complete, well-formed runs on a
     mixed-priority workload (the engine enforces legality; this guards
     against a battery policy dead-ending or stalling). *)
  let layout = Layout.banded ~processors:2 ~levels:2 ~per_level:1 in
  List.iter
    (fun policy ->
      let s =
        Scenarios.run_multi ~step_limit:6_000_000 ~quantum:4000 ~consensus_number:2
          ~layout ~policy:(policy ()) ()
      in
      Util.checkb "finished" s.finished;
      Util.checkb "well-formed" s.well_formed)
    (Scenarios.adversarial_policies ~seeds:[ 0; 1; 2 ] ~var_prefix:"mc.Cons")

let () =
  Alcotest.run "workload"
    [
      ( "layout",
        [
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "distinct priorities" `Quick test_distinct_priorities;
          Alcotest.test_case "banded" `Quick test_banded;
          Alcotest.test_case "random valid" `Quick test_random_layout_valid;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "random script" `Quick test_random_script_shape;
          Alcotest.test_case "fig3 guard" `Quick test_consensus_builder_fig3_guard;
          Alcotest.test_case "run_multi summary" `Quick test_run_multi_summary;
          Alcotest.test_case "run_multi pin" `Quick test_run_multi_pin;
          Alcotest.test_case "run_cas pin" `Quick test_run_cas_pin;
          Alcotest.test_case "outputs accessors" `Quick test_last_outputs_and_decision;
          Alcotest.test_case "opgen shapes" `Quick test_opgen_shapes;
          Alcotest.test_case "adversary battery legal" `Slow test_adversary_battery_legal;
        ] );
    ]
