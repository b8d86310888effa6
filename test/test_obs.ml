(* The observability layer: JSONL schema stability (golden files),
   byte-determinism of exports across --jobs settings (the S4
   acceptance criterion), and agreement between live sink-fed metrics
   and post-hoc reconstruction from a trace.

   Promoting new goldens after an intentional schema change:
     HWF_GOLDEN_PROMOTE=1 dune exec test/test_obs.exe
   from the repository root, then review the diff of test/golden/. *)

open Hwf_sim
open Hwf_workload
open Hwf_adversary

(* The canonical demo run shared with `bench/main.exe --trace-out`:
   Fig. 3 consensus, quantum 8, two equal-priority processes, first-fit
   policy — fully deterministic, no seeds involved. *)
let demo_run () =
  let layout = [ (0, 1); (0, 1) ] in
  let config = Layout.to_config ~quantum:8 layout in
  let b = Scenarios.consensus ~name:"golden" ~impl:Scenarios.Fig3 ~quantum:8 ~layout in
  let inst = b.Scenarios.scenario.Explore.make () in
  let collector = Hwf_obs.Metrics.collector config in
  let r =
    Engine.run ~step_limit:1_000_000
      ~sink:(Hwf_obs.Metrics.sink collector)
      ~config ~policy:Policy.first inst.Explore.programs
  in
  (r, collector)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_trace = "golden/fig3_trace.jsonl"
let golden_metrics = "golden/fig3_metrics.jsonl"

let test_golden_trace () =
  let r, _ = demo_run () in
  Alcotest.(check string)
    "trace export matches the golden file (schema hwf-trace/1)"
    (read_file golden_trace)
    (Hwf_obs.Jsonl.trace_to_string r.Engine.trace)

let test_golden_metrics () =
  let _, collector = demo_run () in
  Alcotest.(check string)
    "metrics export matches the golden file (schema hwf-metrics/1)"
    (read_file golden_metrics)
    (Hwf_obs.Jsonl.metrics_to_string (Hwf_obs.Metrics.finish collector))

(* Statement-name goldens: one round-robin run each of Fig. 7 consensus
   (layout 0:1,1:1,0:1, C = 2, Q = 8) and of the Fig. 5 C&S object, so
   every operation string and grown cell name their objects put in the
   trace stays byte-identical however the objects build them. *)
let fig7_run () =
  (Scenarios.run_multi ~quantum:8 ~consensus_number:2
     ~layout:[ (0, 1); (1, 1); (0, 1) ]
     ~policy:(Policy.round_robin ()) ())
    .Scenarios.trace

let fig5_run () =
  (Scenarios.run_cas ~quantum:8
     ~layout:[ (0, 1); (0, 2); (0, 1) ]
     ~script:(Scenarios.random_script ~seed:5 ~n:3 ~ops_per:3)
     ~policy:(Policy.round_robin ()) ())
    .Scenarios.cas_trace

let golden_fig7 = "golden/fig7_trace.jsonl"
let golden_fig5 = "golden/fig5_trace.jsonl"

let test_golden_named name path run () =
  Alcotest.(check string)
    (name ^ " trace matches the golden file")
    (read_file path)
    (Hwf_obs.Jsonl.trace_to_string (run ()))

(* S4: the CLI's explore export path — replay of a schedule-deterministic
   decision sequence — must produce identical bytes whatever the worker
   count of the search that preceded it. *)
let test_jobs_determinism () =
  let b =
    Scenarios.consensus ~name:"golden" ~impl:Scenarios.Fig3 ~quantum:8
      ~layout:[ (0, 1); (0, 1) ]
  in
  let export jobs =
    let o = Explore.explore ~max_runs:5_000 ~jobs b.Scenarios.scenario in
    let schedule =
      match o.Explore.counterexample with
      | Some c -> c.Explore.decisions
      | None -> []
    in
    let result, _ = Schedule.replay b.Scenarios.scenario schedule in
    let m = Hwf_obs.Metrics.of_trace result.Engine.trace in
    let m =
      Hwf_obs.Metrics.with_harness m
        [
          ("explore.runs", o.Explore.runs);
          ("explore.exhaustive", if o.Explore.exhaustive then 1 else 0);
        ]
    in
    ( Hwf_obs.Jsonl.trace_to_string result.Engine.trace,
      Hwf_obs.Jsonl.metrics_to_string m )
  in
  let t1, m1 = export 1 in
  let t4, m4 = export 4 in
  Alcotest.(check string) "trace bytes identical for --jobs 1 vs --jobs 4" t1 t4;
  Alcotest.(check string) "metrics bytes identical for --jobs 1 vs --jobs 4" m1 m4

(* Live collection through the trace sink and post-hoc reconstruction
   from the recorded trace must agree exactly. *)
let test_feed_vs_of_trace () =
  let r, collector = demo_run () in
  Alcotest.(check string)
    "sink-fed metrics equal Metrics.of_trace"
    (Hwf_obs.Jsonl.metrics_to_string (Hwf_obs.Metrics.of_trace r.Engine.trace))
    (Hwf_obs.Jsonl.metrics_to_string (Hwf_obs.Metrics.finish collector))

(* The escaper: variable names with JSON-hostile characters must still
   produce parseable lines (checked here by exact expected output). *)
let test_escaping () =
  let config = Util.uni_config ~quantum:4 [ 1 ] in
  let x = Shared.make "quote\"back\\slash\ttab" 0 in
  let body () = Eff.invocation "op" (fun () -> ignore (Shared.read x)) in
  let r = Engine.run ~config ~policy:Policy.first [| body |] in
  let s = Hwf_obs.Jsonl.trace_to_string r.Engine.trace in
  Alcotest.(check bool)
    "escaped variable name appears"
    true
    (let sub = {|"var":"quote\"back\\slash\ttab"|} in
     let rec find i =
       if i + String.length sub > String.length s then false
       else if String.sub s i (String.length sub) = sub then true
       else find (i + 1)
     in
     find 0)

(* ---- differential check of the incremental preemption accounting ----

   [Metrics] resolves preemption class and quantum grants from
   per-processor counters in O(1) per statement; this reference
   recomputes them with the direct quadratic broadcast (every statement
   eagerly marks every open same-processor peer) and the two must agree
   field for field on every trace, including priority churn and
   multiprogrammed processors. *)
module Naive = struct
  type acc = {
    mutable priority : int;
    mutable open_ : bool;
    mutable inv_statements : int;
    mutable gap : [ `None | `Same | `Higher ];
    mutable pending : bool;
    mutable guarantee : int;
    mutable inv_same : int;
    mutable inv_higher : int;
    mutable same : int;
    mutable higher : int;
    mutable grants : int;
    mutable protected_ : int;
  }

  (* per-pid (same, higher, grants, protected) plus per-invocation
     (pid, inv, same, higher) in close order *)
  let run trace =
    let config = Trace.config trace in
    let n = Config.n config in
    let processor pid = config.Config.procs.(pid).Proc.processor in
    let accs =
      Array.init n (fun pid ->
          {
            priority = config.Config.procs.(pid).Proc.priority;
            open_ = false;
            inv_statements = 0;
            gap = `None;
            pending = false;
            guarantee = 0;
            inv_same = 0;
            inv_higher = 0;
            same = 0;
            higher = 0;
            grants = 0;
            protected_ = 0;
          })
    in
    let closed = ref [] in
    let cur_inv = Array.make n 0 in
    let close pid =
      let a = accs.(pid) in
      if a.open_ then begin
        closed := (pid, cur_inv.(pid), a.inv_same, a.inv_higher) :: !closed;
        a.open_ <- false;
        a.pending <- false;
        a.guarantee <- 0
      end
    in
    Trace.iter
      (fun ev ->
        match ev with
        | Trace.Inv_begin { pid; inv; _ } ->
          let a = accs.(pid) in
          a.open_ <- true;
          a.inv_statements <- 0;
          a.inv_same <- 0;
          a.inv_higher <- 0;
          a.gap <- `None;
          cur_inv.(pid) <- inv
        | Trace.Inv_end { pid; _ } -> close pid
        | Trace.Set_priority { pid; priority } -> accs.(pid).priority <- priority
        | Trace.Axiom2_gate { active; _ } ->
          if active then Array.iter (fun a -> a.guarantee <- 0) accs
        | Trace.Stmt { pid; cost; _ } ->
          let a = accs.(pid) in
          if a.pending then begin
            a.pending <- false;
            a.grants <- a.grants + 1;
            a.guarantee <- config.Config.quantum
          end;
          if a.guarantee > 0 then a.protected_ <- a.protected_ + 1;
          a.guarantee <- max 0 (a.guarantee - cost);
          if a.open_ then begin
            (match a.gap with
            | `None -> ()
            | `Same ->
              a.inv_same <- a.inv_same + 1;
              a.same <- a.same + 1
            | `Higher ->
              a.inv_higher <- a.inv_higher + 1;
              a.higher <- a.higher + 1);
            a.gap <- `None;
            a.inv_statements <- a.inv_statements + 1
          end;
          for q = 0 to n - 1 do
            if q <> pid && processor q = processor pid then begin
              let b = accs.(q) in
              if b.open_ then b.pending <- true;
              if b.open_ && b.inv_statements > 0 then begin
                let cls = if a.priority > b.priority then `Higher else `Same in
                match (b.gap, cls) with
                | `Higher, _ -> ()
                | _, `Higher -> b.gap <- `Higher
                | _, `Same -> b.gap <- `Same
              end
            end
          done)
      trace;
    for pid = 0 to n - 1 do
      close pid
    done;
    ( Array.map (fun a -> (a.same, a.higher, a.grants, a.protected_)) accs,
      List.rev !closed )
end

let check_against_naive what trace =
  let m = Hwf_obs.Metrics.of_trace trace in
  let ref_pids, ref_invs = Naive.run trace in
  Array.iteri
    (fun pid (same, higher, grants, protected_) ->
      let s = m.Hwf_obs.Metrics.per_pid.(pid) in
      Alcotest.(check (list int))
        (Fmt.str "%s: p%d preemption/grant accounting" what (pid + 1))
        [ same; higher; grants; protected_ ]
        [
          s.Hwf_obs.Metrics.same_preemptions;
          s.Hwf_obs.Metrics.higher_preemptions;
          s.Hwf_obs.Metrics.guarantee_grants;
          s.Hwf_obs.Metrics.protected_statements;
        ])
    ref_pids;
  Alcotest.(check (list (list int)))
    (Fmt.str "%s: per-invocation preemption classes" what)
    (List.map (fun (pid, inv, s, h) -> [ pid; inv; s; h ]) ref_invs)
    (List.map
       (fun (i : Hwf_obs.Metrics.inv_stat) ->
         [ i.pid; i.inv; i.same_preemptions; i.higher_preemptions ])
       m.Hwf_obs.Metrics.invocations)

let test_incremental_vs_naive () =
  (* Multiprogrammed processors with priority spread, across policies
     and seeds; fig9 adds Set_priority churn mid-gap. *)
  let layouts =
    [
      ("uni4", [ (0, 1); (0, 2); (0, 1); (0, 3) ]);
      ("2cpu", [ (0, 1); (0, 2); (1, 1); (1, 2); (0, 3) ]);
    ]
  in
  List.iter
    (fun (lname, layout) ->
      List.iter
        (fun (iname, impl) ->
          List.iter
            (fun seed ->
              let b =
                Scenarios.consensus ~name:"diff" ~impl ~quantum:3 ~layout
              in
              let inst = b.Scenarios.scenario.Explore.make () in
              let r =
                Engine.run ~step_limit:100_000
                  ~config:b.Scenarios.scenario.Explore.config
                  ~policy:(Policy.random ~seed) inst.Explore.programs
              in
              check_against_naive
                (Fmt.str "%s/%s/seed%d" lname iname seed)
                r.Engine.trace)
            [ 0; 1; 2; 3 ])
        [
          ("fig7", Scenarios.Fig7 { consensus_number = 4 });
          ("fig9", Scenarios.Fig9 { consensus_number = 4 });
        ])
    layouts

let promote () =
  let r, collector = demo_run () in
  Hwf_obs.Jsonl.write_trace ~path:("test/" ^ golden_trace) r.Engine.trace;
  Hwf_obs.Jsonl.write_metrics
    ~path:("test/" ^ golden_metrics)
    (Hwf_obs.Metrics.finish collector);
  Hwf_obs.Jsonl.write_trace ~path:("test/" ^ golden_fig7) (fig7_run ());
  Hwf_obs.Jsonl.write_trace ~path:("test/" ^ golden_fig5) (fig5_run ());
  print_endline "promoted test/golden/fig{3,5,7}_*.jsonl"

let () =
  if Sys.getenv_opt "HWF_GOLDEN_PROMOTE" <> None then promote ()
  else
    Alcotest.run "obs"
      [
        ( "jsonl",
          [
            Alcotest.test_case "golden trace" `Quick test_golden_trace;
            Alcotest.test_case "golden metrics" `Quick test_golden_metrics;
            Alcotest.test_case "golden fig7 trace" `Quick
              (test_golden_named "fig7" golden_fig7 fig7_run);
            Alcotest.test_case "golden fig5 trace" `Quick
              (test_golden_named "fig5" golden_fig5 fig5_run);
            Alcotest.test_case "jobs determinism (S4)" `Quick test_jobs_determinism;
            Alcotest.test_case "feed vs of_trace" `Quick test_feed_vs_of_trace;
            Alcotest.test_case "escaping" `Quick test_escaping;
          ] );
        ( "metrics",
          [
            Alcotest.test_case "incremental vs naive broadcast" `Quick
              test_incremental_vs_naive;
          ] );
      ]
