(* Trace analytics through Hwf_obs.Metrics: per-invocation statements,
   same- vs higher-level preemptions and context switches. *)

open Hwf_sim
module Metrics = Hwf_obs.Metrics

let of_trace = Metrics.of_trace
let sum f (m : Metrics.t) = List.fold_left (fun acc i -> acc + f i) 0 m.invocations
let top f (m : Metrics.t) = List.fold_left (fun acc i -> max acc (f i)) 0 m.invocations
let same_total = sum (fun (i : Metrics.inv_stat) -> i.same_preemptions)
let higher_total = sum (fun (i : Metrics.inv_stat) -> i.higher_preemptions)
let max_same = top (fun (i : Metrics.inv_stat) -> i.same_preemptions)
let max_statements = top (fun (i : Metrics.inv_stat) -> i.statements)
let per_pid_statements (m : Metrics.t) =
  Array.map (fun (s : Metrics.pid_stat) -> s.statements) m.per_pid

let run_with ~pris ~quantum ~policy bodies =
  let config = Util.uni_config ~quantum pris in
  Util.run ~config ~policy bodies

let worker log pid k () =
  Eff.invocation "w" (fun () ->
      for _ = 1 to k do
        Eff.local "s";
        log := pid :: !log
      done)

let test_solo_invocation () =
  let log = ref [] in
  let r = run_with ~pris:[ 1 ] ~quantum:4 ~policy:Policy.first [| worker log 0 5 |] in
  let a = of_trace r.trace in
  Util.checki "one invocation" 1 (List.length a.invocations);
  Util.checki "no switches" 0 a.switches;
  Util.checki "statements" 5 (max_statements a);
  Util.checki "no preemptions" 0 (same_total a);
  match a.invocations with
  | [ i ] ->
    Util.checkb "completed" i.completed;
    Util.checki "pid" 0 i.pid
  | _ -> Alcotest.fail "expected one"

let test_same_level_preemption_counted () =
  let log = ref [] in
  let r =
    run_with ~pris:[ 1; 1 ] ~quantum:3
      ~policy:(Hwf_adversary.Stagger.max_interleave ())
      [| worker log 0 6; worker log 1 6 |]
  in
  let a = of_trace r.trace in
  Util.checkb "some same-level preemptions" (same_total a >= 1);
  Util.checki "no higher-level preemptions" 0 (higher_total a);
  (* the quantum rations same-level preemptions: at most
     ceil(6 / 3) = 2 per invocation here *)
  Util.checkb "rationed"
    (max_same a <= 2)

let test_higher_level_classified () =
  let log = ref [] in
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 1; 1; 0 ] in
  let r =
    run_with ~pris:[ 1; 2 ] ~quantum:8 ~policy [| worker log 0 2; worker log 1 3 |]
  in
  let a = of_trace r.trace in
  Util.checki "one higher-level preemption" 1 (higher_total a);
  Util.checki "no same-level" 0 (same_total a)

let test_theorem1_quantum_implies_single_preemption () =
  (* The structural fact Theorem 1 relies on: with Q >= invocation
     length, an invocation suffers at most one same-level preemption. *)
  let ok = ref true in
  for seed = 0 to 30 do
    let log = ref [] in
    let r =
      run_with ~pris:[ 1; 1; 1 ] ~quantum:8 ~policy:(Policy.random ~seed)
        [| worker log 0 8; worker log 1 8; worker log 2 8 |]
    in
    let a = of_trace r.trace in
    if max_same a > 1 then ok := false
  done;
  Util.checkb "at most one same-level preemption per 8-statement invocation" !ok

let test_switch_count () =
  let log = ref [] in
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1 ] in
  let r =
    run_with ~pris:[ 1; 1 ] ~quantum:100 ~policy [| worker log 0 2; worker log 1 2 |]
  in
  let a = of_trace r.trace in
  Util.checki "three switches" 3 a.switches;
  Alcotest.(check (array int)) "per-pid" [| 2; 2 |] (per_pid_statements a)

let test_multiprocessor_switches_not_inflated () =
  (* Regression: switches were counted whenever consecutive trace
     statements had different pids, so ordinary cross-processor
     interleaving inflated the context-switch count on P > 1. A switch
     is a change of running process on one processor. *)
  let procs =
    [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
      Proc.make ~pid:1 ~processor:1 ~priority:1 () ]
  in
  let config = Config.make ~quantum:4 ~processors:2 ~levels:1 procs in
  let log = ref [] in
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1 ] in
  let r = Util.run ~config ~policy [| worker log 0 2; worker log 1 2 |] in
  let a = of_trace r.trace in
  Util.checki "no switches across processors" 0 a.switches

let test_dynamic_priority_classification () =
  (* After p0 raises its priority, its statements count as higher-level
     activity in p1's gaps. *)
  let config =
    Config.uniprocessor ~quantum:8 ~levels:2
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "a" (fun () -> Eff.local "s");
        Eff.set_priority 2;
        Eff.invocation "b" (fun () ->
            Eff.local "s";
            Eff.local "s"));
      (fun () ->
        Eff.invocation "w" (fun () ->
            for _ = 1 to 4 do
              Eff.local "s"
            done));
    |]
  in
  (* p1 starts, p0 does inv a (preempting p1 same-level), p1 resumes for
     one statement, p0 raises to 2 and does inv b (preempting p1
     higher-level), p1 finishes. Two separate gaps, two classes. *)
  let policy = Policy.scripted ~fallback:Policy.first [ 1; 0; 1; 0; 0; 1; 1 ] in
  let r = Util.run ~config ~policy bodies in
  let a = of_trace r.trace in
  Util.checkb "has higher-level preemption" (higher_total a >= 1);
  Util.checkb "has same-level preemption" (same_total a >= 1)

let prop_analysis_consistent =
  Util.qtest ~count:60 "per-pid statements sum to trace total"
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let layout = Hwf_workload.Layout.random ~seed ~processors:2 ~levels:2 ~n:4 in
      let config = Hwf_workload.Layout.to_config ~quantum:(seed mod 10) layout in
      let x = Shared.make "x" 0 in
      let bodies =
        Array.init 4 (fun _ () ->
            Eff.invocation "op" (fun () ->
                let v = Shared.read x in
                Shared.write x (v + 1)))
      in
      let r = Engine.run ~config ~policy:(Policy.random ~seed) bodies in
      let a = of_trace r.trace in
      Array.fold_left ( + ) 0 (per_pid_statements a) = Trace.statements r.trace
      && List.length a.invocations = 4
      && List.for_all (fun (i : Metrics.inv_stat) -> i.completed) a.invocations)

let () =
  Alcotest.run "analysis"
    [
      ( "unit",
        [
          Alcotest.test_case "solo invocation" `Quick test_solo_invocation;
          Alcotest.test_case "same-level preemption" `Quick
            test_same_level_preemption_counted;
          Alcotest.test_case "higher-level classified" `Quick test_higher_level_classified;
          Alcotest.test_case "theorem 1 structure" `Quick
            test_theorem1_quantum_implies_single_preemption;
          Alcotest.test_case "switch count" `Quick test_switch_count;
          Alcotest.test_case "multiprocessor switches not inflated" `Quick
            test_multiprocessor_switches_not_inflated;
          Alcotest.test_case "dynamic priority classification" `Quick
            test_dynamic_priority_classification;
        ] );
      ("props", [ prop_analysis_consistent ]);
    ]
