(* The resilience layer (lib/resil) and its integration with the
   campaign runners: per-cell deadlines, the error taxonomy and retry
   policy, hwf-ckpt/1 checkpoint journals, and the kill-and-resume
   determinism contract of docs/ROBUSTNESS.md — a campaign interrupted
   mid-flight and resumed from its checkpoint must produce the same
   report as an uninterrupted run, sequentially and under --jobs 2. *)

open Hwf_sim
open Hwf_workload
open Hwf_faults
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint

let tmpfile () = Filename.temp_file "hwf_resil_test" ".ckpt.jsonl"

(* ---- deadlines ---- *)

let test_deadline_fuel () =
  let d = Resil.deadline ~fuel:3 () in
  Util.checkb "fresh fuel not expired" (not (Resil.expired d));
  Resil.check_deadline d;
  Resil.spend d 3;
  Util.checkb "spent fuel expired" (Resil.expired d);
  (match Resil.check_deadline d with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Resil.Deadline_exceeded _ -> ());
  Util.checkb "no_deadline never expires" (not (Resil.expired Resil.no_deadline))

let test_deadline_wall () =
  let d = Resil.deadline ~wall_s:0.001 () in
  Unix.sleepf 0.01;
  Util.checkb "wall deadline expired" (Resil.expired d);
  match Resil.wall_left_s d with
  | Some left -> Util.checkb "no wall time left" (left <= 0.)
  | None -> Alcotest.fail "wall deadline reports no wall budget"

let test_guard_observer () =
  (* The guard is what turns a livelocked engine run into a structured
     timeout: it must raise from inside the event stream. *)
  let g = Resil.guard_observer ~every:1 (Resil.deadline ~wall_s:0.0 ()) in
  Unix.sleepf 0.005;
  match
    for _ = 1 to 100 do
      g ()
    done
  with
  | () -> Alcotest.fail "guard never fired"
  | exception Resil.Deadline_exceeded _ -> ()

(* ---- taxonomy and retry ---- *)

let test_classify () =
  let transient e = Resil.classify e = Resil.Transient in
  Util.checkb "OOM is transient" (transient Out_of_memory);
  Util.checkb "stack overflow is transient" (transient Stack_overflow);
  Util.checkb "EINTR is transient"
    (transient (Unix.Unix_error (Unix.EINTR, "read", "")));
  Util.checkb "Failure is a harness bug"
    (Resil.classify (Failure "boom") = Resil.Harness_bug)

let test_run_cell_ok () =
  let c = Resil.run_cell (fun _ -> 42) in
  Util.checkb "value" (Resil.cell_value c = Some 42);
  Util.checki "one attempt" 1 c.Resil.attempts

let test_run_cell_retry_backoff () =
  (* Two transient failures then success: the retry policy must make
     exactly three attempts with exponentially growing backoff sleeps
     (0.05, then 0.05 * 8), and the cell must come back Ok. *)
  let tries = ref 0 and sleeps = ref [] in
  let f _ =
    incr tries;
    if !tries < 3 then raise Stack_overflow else "ok"
  in
  let c =
    Resil.run_cell ~retry:Resil.default_retry
      ~sleep:(fun s -> sleeps := s :: !sleeps)
      f
  in
  Util.checkb "recovered" (Resil.cell_value c = Some "ok");
  Util.checki "three attempts" 3 c.Resil.attempts;
  (match List.rev !sleeps with
  | [ s1; s2 ] ->
    Util.check (Alcotest.float 1e-9) "base backoff" 0.05 s1;
    Util.check (Alcotest.float 1e-9) "x8 backoff" 0.4 s2
  | l -> Alcotest.failf "expected 2 backoff sleeps, got %d" (List.length l));
  let cov = Resil.coverage_of_cells [| c |] in
  Util.checki "retries counted" 2 cov.Resil.retries;
  Util.checki "degraded counted" 1 cov.Resil.degraded

let test_run_cell_harness_bug_not_retried () =
  let tries = ref 0 in
  let c =
    Resil.run_cell ~retry:Resil.default_retry
      ~sleep:(fun _ -> ())
      (fun _ ->
        incr tries;
        failwith "harness bug")
  in
  (match c.Resil.outcome with
  | Resil.Errored (Resil.Harness_bug, msg) ->
    Util.checkb "message kept" (Util.contains msg "harness bug")
  | _ -> Alcotest.fail "expected Errored Harness_bug");
  Util.checki "never retried" 1 !tries

let test_run_cell_timeout_demotion () =
  (* Every attempt times out; the attempt number must reach the deadline
     builder so the caller can demote the budget. *)
  let seen = ref [] in
  let deadline_for ~attempt =
    seen := attempt :: !seen;
    Resil.deadline ~fuel:1 ()
  in
  let c =
    Resil.run_cell
      ~retry:{ Resil.default_retry with attempts = 2 }
      ~sleep:(fun _ -> ())
      ~deadline_for
      (fun d ->
        Resil.spend d 1;
        Resil.check_deadline d)
  in
  (match c.Resil.outcome with
  | Resil.Timed_out _ -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  Util.checki "both attempts made" 2 c.Resil.attempts;
  Util.check Alcotest.(list int) "builder saw attempt numbers" [ 1; 2 ]
    (List.rev !seen)

let test_map_should_stop () =
  Resil.reset_interrupt ();
  let stop = Atomic.make false in
  let cells =
    Resil.map ~jobs:1
      ~should_stop:(fun () -> Atomic.get stop)
      (fun _ i ->
        if i = 1 then Atomic.set stop true;
        i * 10)
      (Array.init 6 Fun.id)
  in
  let cov = Resil.coverage_of_cells cells in
  Util.checki "total" 6 cov.Resil.cells_total;
  Util.checkb "some cells skipped" (cov.Resil.skipped > 0);
  Util.checkb "stop is not silent" (not (Resil.complete cov));
  Util.checkb "completed prefix kept" (Resil.cell_value cells.(0) = Some 0)

(* ---- checkpoint journals ---- *)

let test_checkpoint_roundtrip () =
  let path = tmpfile () in
  let t = Checkpoint.create ~path ~campaign:"camp" ~cells:3 in
  Checkpoint.record t ~idx:0 ~key:"a" ~payload:"p0";
  Checkpoint.record t ~idx:1 ~key:"b" ~payload:"p1";
  Checkpoint.record t ~idx:0 ~key:"a" ~payload:"p0'";
  Checkpoint.close t;
  (match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (h, entries) ->
    Util.check Alcotest.string "campaign" "camp" h.Checkpoint.campaign;
    Util.checki "cells" 3 h.Checkpoint.cells;
    Util.checki "last-wins dedup" 2 (List.length entries);
    let e0 = List.find (fun e -> e.Checkpoint.idx = 0) entries in
    Util.check Alcotest.string "last record wins" "p0'" e0.Checkpoint.payload);
  Sys.remove path

let test_checkpoint_partial_trailing_line () =
  (* A SIGKILL mid-write leaves a partial last line; the loader must
     drop it and keep everything before. *)
  let path = tmpfile () in
  let t = Checkpoint.create ~path ~campaign:"camp" ~cells:2 in
  Checkpoint.record t ~idx:0 ~key:"a" ~payload:"p0";
  Checkpoint.close t;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"cell\":1,\"key\":\"b\",\"pay";
  close_out oc;
  (match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, entries) ->
    Util.checki "partial line dropped" 1 (List.length entries));
  Sys.remove path

let test_checkpoint_campaign_mismatch () =
  let path = tmpfile () in
  let t = Checkpoint.create ~path ~campaign:"camp-A" ~cells:2 in
  Checkpoint.close t;
  (match Checkpoint.open_ ~path ~campaign:"camp-B" ~cells:2 ~resume:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume across campaigns must be refused");
  (match Checkpoint.open_ ~path ~campaign:"camp-A" ~cells:5 ~resume:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume with a different cell count must be refused");
  Sys.remove path;
  (* A missing file degrades to a fresh journal. *)
  match Checkpoint.open_ ~path ~campaign:"camp-A" ~cells:2 ~resume:true with
  | Ok (t, []) ->
    Checkpoint.close t;
    Sys.remove path
  | Ok _ -> Alcotest.fail "missing file must restore no entries"
  | Error e -> Alcotest.failf "missing file must degrade to fresh: %s" e

(* ---- certify kill-and-resume determinism ---- *)

let check_reports name (r1 : Certify.report) (r2 : Certify.report) =
  Util.checki (name ^ ": plans") r1.plans r2.plans;
  Util.checki (name ^ ": passed") r1.passed r2.passed;
  Util.checki (name ^ ": blocked") r1.blocked r2.blocked;
  Util.checki (name ^ ": worst own-steps") r1.worst_own_steps r2.worst_own_steps;
  Util.checki (name ^ ": failures") (List.length r1.failures)
    (List.length r2.failures);
  List.iter2
    (fun (f1 : Certify.failure) (f2 : Certify.failure) ->
      Util.check Alcotest.string (name ^ ": failure message") f1.message f2.message;
      Util.check Alcotest.(list int) (name ^ ": shrunk schedule") f1.schedule
        f2.schedule)
    r1.failures r2.failures

let certify_kill_resume ~jobs () =
  Resil.reset_interrupt ();
  let subject = Suite.fig3 ~seed:17 () in
  let plans = Suite.campaign ~quick:true ~seed:17 subject in
  let reference = Certify.certify ~jobs subject plans in
  let path = tmpfile () in
  (* The "kill": stop claiming cells after the 5th should_stop poll, as
     a SIGTERM would. Completed cells are already journaled. *)
  let polls = Atomic.make 0 in
  let partial =
    Certify.certify ~jobs ~checkpoint:path
      ~should_stop:(fun () -> Atomic.fetch_and_add polls 1 >= 5)
      subject plans
  in
  Util.checkb "interrupted run is visibly partial"
    (not (Resil.complete partial.Certify.coverage));
  Util.checkb "interrupted run did some cells"
    (partial.Certify.coverage.Resil.cells_done > 0);
  let resumed = Certify.certify ~jobs ~checkpoint:path ~resume:true subject plans in
  Util.checkb "resumed run is complete"
    (Resil.complete resumed.Certify.coverage);
  check_reports "resume equals clean" reference resumed;
  Sys.remove path

let test_certify_kill_resume_seq () = certify_kill_resume ~jobs:1 ()
let test_certify_kill_resume_par () = certify_kill_resume ~jobs:2 ()

let test_certify_timeout_structured () =
  (* A livelocked subject (unbounded spin, no step limit) must come back
     as a structured per-cell timeout with partial coverage — not hang
     the campaign and not count as a counterexample. *)
  let subject =
    {
      Certify.name = "livelock";
      config = Layout.to_config ~quantum:8 [ (0, 1) ];
      policy = (fun () -> Policy.first);
      make =
        (fun () ->
          {
            Certify.programs =
              [|
                (fun () ->
                  Eff.invocation "spin" (fun () ->
                      while true do
                        Eff.local "s"
                      done));
              |];
            check = (fun ~survivors:_ _ -> Ok ());
          });
      step_bound = max_int;
      bound_desc = "unbounded";
      step_limit = max_int;
    }
  in
  let r = Certify.certify ~cell_wall_s:0.05 subject [ Plan.none ] in
  let c = r.Certify.coverage in
  Util.checki "one timeout" 1 c.Resil.timeouts;
  Util.checki "nothing done" 0 c.Resil.cells_done;
  Util.checkb "campaign visibly incomplete" (not (Resil.complete c));
  Util.checki "timeouts are not failures" 0 (List.length r.Certify.failures)

(* ---- explore kill-and-resume determinism ---- *)

let fig3_scenario ~quantum ~pris =
  (Scenarios.consensus ~name:"resil.f3" ~impl:Scenarios.Fig3 ~quantum
     ~layout:(List.map (fun p -> (0, p)) pris))
    .Scenarios.scenario

(* [stats], when given, pairs the two searches' counters, which must
   agree too: sleep-set skips, source-set prunes, runs per subtree. *)
let check_outcomes ?stats name (o1 : Hwf_adversary.Explore.outcome)
    (o2 : Hwf_adversary.Explore.outcome) =
  let open Hwf_adversary.Explore in
  let counters s = (stats_pruned s, stats_source_prunes s, stats_subtree_runs s) in
  Option.iter
    (fun (s1, s2) -> Util.checkb (name ^ ": search counters") (counters s1 = counters s2))
    stats;
  Util.checki (name ^ ": runs") o1.runs o2.runs;
  Util.checkb (name ^ ": exhaustive") (o1.exhaustive = o2.exhaustive);
  match (o1.counterexample, o2.counterexample) with
  | None, None -> ()
  | Some c1, Some c2 ->
    Util.check Alcotest.string (name ^ ": message") c1.message c2.message;
    Util.check Alcotest.(list int) (name ^ ": decisions") c1.decisions c2.decisions
  | _ -> Alcotest.failf "%s: counterexample verdicts differ" name

(* Cut a journal to its header plus the first subtree — the state a
   SIGKILL early in the campaign leaves behind. *)
let keep_first_cell path =
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let keep = List.filteri (fun i l -> i < 2 && l <> "") lines in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Printf.fprintf oc "%s\n" l) keep)

(* Three processes on two processors: cross-processor pairs on distinct
   variables commute, so sleep sets skip branches and block prefixes. *)
let mixed_2cpu_scenario () =
  let make () =
    let a = Shared.make "a" 0 and b = Shared.make "b" 0 and c = Shared.make "c" 0 in
    let bump v = Shared.write v (Shared.read v + 1) in
    let programs =
      [|
        (fun () -> Eff.invocation "p0" (fun () -> bump a; bump a));
        (fun () -> Eff.invocation "p1" (fun () -> bump b; ignore (Shared.read a)));
        (fun () -> Eff.invocation "p2" (fun () -> bump c; ignore (Shared.read b)));
      |]
    in
    let check (r : Engine.result) =
      let finals = (Shared.peek a, Shared.peek b, Shared.peek c) in
      if Array.for_all Fun.id r.Engine.finished && finals = (2, 1, 1) then Ok ()
      else Error "bad final state"
    in
    Hwf_adversary.Explore.{ programs; check }
  in
  let config = Layout.to_config ~quantum:4 [ (0, 1); (1, 1); (0, 1) ] in
  Hwf_adversary.Explore.{ name = "resil.mixed"; config; make }

let test_explore_checkpoint_resume () =
  (* Plain, freshly checkpointed and resumed searches are one subtree-cell
     loop: they agree on the outcome and, where cells run, on the search
     counters. The 2-cpu Fig. 7 search is cut by [max_runs], which is
     deterministic only at jobs = 1, and is not resumed partially: the
     journal does not record the budget spent on blocked prefixes. *)
  let open Hwf_adversary in
  let fig7 =
    (Scenarios.consensus ~name:"resil.f7" ~impl:(Scenarios.Fig7 { consensus_number = 2 })
       ~quantum:8 ~layout:[ (0, 1); (1, 1); (0, 1) ])
      .Scenarios.scenario
  in
  List.iter
    (fun (name, scenario, max_runs, jobs_list) ->
      let run ?checkpoint ?resume jobs =
        let stats = Explore.make_stats ~jobs:4 scenario in
        (Explore.explore ?max_runs ?checkpoint ?resume ~jobs ~stats scenario, stats)
      in
      let reference, rs = run 1 in
      List.iter
        (fun jobs ->
          let tag mode = Printf.sprintf "%s jobs=%d: %s" name jobs mode in
          let plain, s = run jobs in
          check_outcomes ~stats:(rs, s) (tag "plain") reference plain;
          let path = tmpfile () in
          let fresh, s = run ~checkpoint:path jobs in
          check_outcomes ~stats:(rs, s) (tag "checkpointed") reference fresh;
          let resumed, s = run ~checkpoint:path ~resume:true jobs in
          check_outcomes (tag "full resume") reference resumed;
          Util.checkb (tag "full resume runs nothing")
            (Array.for_all (( = ) 0) (Explore.stats_subtree_runs s));
          (* Truncate the journal to its header plus the first subtree —
             the state a SIGKILL early in the campaign leaves behind — and
             resume: the other subtrees re-run exactly as before. *)
          if max_runs = None then begin
            keep_first_cell path;
            let kept =
              match Checkpoint.load ~path with
              | Ok (_, [ e ]) -> e.Checkpoint.idx
              | _ -> Alcotest.fail "expected one journaled subtree"
            in
            let resumed, s = run ~checkpoint:path ~resume:true jobs in
            check_outcomes (tag "partial resume") reference resumed;
            Util.check
              Alcotest.(array int)
              (tag "partial resume re-runs")
              (Array.mapi
                 (fun i n -> if i = kept then 0 else n)
                 (Explore.stats_subtree_runs rs))
              (Explore.stats_subtree_runs s)
          end;
          Sys.remove path)
        jobs_list;
      if name <> "fig3" then
        Util.checkb (name ^ ": sleep and source sets prune")
          (Explore.stats_pruned rs > 0 && Explore.stats_source_prunes rs > 0))
    [
      ("fig3", fig3_scenario ~quantum:8 ~pris:[ 1; 1; 1 ], None, [ 1 ]);
      ("fig7 2-cpu, max_runs cut", fig7, Some 300, [ 1 ]);
      ("mixed 2-cpu", mixed_2cpu_scenario (), None, [ 1; 4 ]);
    ]

let test_explore_checkpoint_resume_counterexample () =
  let open Hwf_adversary in
  let scenario = fig3_scenario ~quantum:1 ~pris:[ 1; 1 ] in
  let reference = Explore.explore ~jobs:1 scenario in
  Util.expect_fail "fig3 Q=1" reference;
  let path = tmpfile () in
  let fresh = Explore.explore ~checkpoint:path scenario in
  check_outcomes "checkpointed counterexample" reference fresh;
  (* The resumed counterexample is rebuilt by replaying its journaled
     decision sequence; trace and message must both survive. *)
  let resumed = Explore.explore ~checkpoint:path ~resume:true scenario in
  check_outcomes "restored counterexample" reference resumed;
  (match (reference.Explore.counterexample, resumed.Explore.counterexample) with
  | Some c1, Some c2 ->
    Util.checki "replayed trace has the same statement count"
      (Trace.statements c1.Explore.trace)
      (Trace.statements c2.Explore.trace)
  | _ -> Alcotest.fail "expected counterexamples on both sides");
  Sys.remove path

let test_explore_checkpoint_jobs_grain () =
  (* Kill-and-resume quantified over the knobs: a campaign cut short by
     [should_stop] must resume to the plain outcome whatever jobs/grain
     the resuming invocation uses — the journal is per subtree at every
     grain. *)
  let open Hwf_adversary in
  let scenario = fig3_scenario ~quantum:8 ~pris:[ 1; 1; 1 ] in
  let reference = Explore.explore ~jobs:1 scenario in
  List.iter
    (fun (jobs, grain) ->
      let path = tmpfile () in
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls > 40
      in
      let partial = Explore.explore ~checkpoint:path ~should_stop:stop scenario in
      Util.checkb "interrupted campaign is visibly partial"
        (not (Resil.complete partial.Explore.coverage));
      let resumed =
        Explore.explore ~checkpoint:path ~resume:true ~jobs ~grain scenario
      in
      check_outcomes
        (Printf.sprintf "resume at jobs=%d grain=%d" jobs grain)
        reference resumed;
      Sys.remove path)
    [ (1, 1); (2, 1); (4, 2) ]

let test_explore_checkpoint_dpor_identity () =
  (* The armed [dpor] value changes run counts, so it is part of the
     campaign identity: a journal written with pruning cannot seed a
     [--no-dpor] resume. *)
  let open Hwf_adversary in
  let scenario = fig3_scenario ~quantum:8 ~pris:[ 1; 1 ] in
  let path = tmpfile () in
  ignore (Explore.explore ~checkpoint:path scenario);
  (match Explore.explore ~checkpoint:path ~resume:true ~dpor:false scenario with
  | _ -> Alcotest.fail "expected a campaign mismatch"
  | exception Invalid_argument m ->
    Util.checkb "refused as a different campaign" (Util.contains m "Explore.explore"));
  Sys.remove path

let () =
  Alcotest.run "resil"
    [
      ( "deadline",
        [
          Alcotest.test_case "fuel budget" `Quick test_deadline_fuel;
          Alcotest.test_case "wall budget" `Quick test_deadline_wall;
          Alcotest.test_case "guard observer raises" `Quick test_guard_observer;
        ] );
      ( "retry",
        [
          Alcotest.test_case "taxonomy" `Quick test_classify;
          Alcotest.test_case "ok cell" `Quick test_run_cell_ok;
          Alcotest.test_case "transient retry + backoff" `Quick
            test_run_cell_retry_backoff;
          Alcotest.test_case "harness bug not retried" `Quick
            test_run_cell_harness_bug_not_retried;
          Alcotest.test_case "timeout demotion" `Quick
            test_run_cell_timeout_demotion;
          Alcotest.test_case "map stops cooperatively" `Quick test_map_should_stop;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip, last wins" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "partial trailing line" `Quick
            test_checkpoint_partial_trailing_line;
          Alcotest.test_case "campaign mismatch refused" `Quick
            test_checkpoint_campaign_mismatch;
        ] );
      ( "certify",
        [
          Alcotest.test_case "kill and resume (sequential)" `Quick
            test_certify_kill_resume_seq;
          Alcotest.test_case "kill and resume (jobs=2)" `Quick
            test_certify_kill_resume_par;
          Alcotest.test_case "livelock becomes structured timeout" `Quick
            test_certify_timeout_structured;
        ] );
      ( "explore",
        [
          Alcotest.test_case "checkpoint and resume" `Quick
            test_explore_checkpoint_resume;
          Alcotest.test_case "kill and resume across jobs/grain" `Quick
            test_explore_checkpoint_jobs_grain;
          Alcotest.test_case "dpor is campaign identity" `Quick
            test_explore_checkpoint_dpor_identity;
          Alcotest.test_case "restored counterexample" `Quick
            test_explore_checkpoint_resume_counterexample;
        ] );
    ]
