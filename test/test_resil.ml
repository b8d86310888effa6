(* The resilience layer (lib/resil) and its integration with the
   campaign runners: per-cell deadlines, the error taxonomy and retry
   policy, hwf-ckpt/2 checkpoint journals, and the kill-and-resume
   determinism contract of docs/ROBUSTNESS.md — a campaign interrupted
   mid-flight and resumed from its checkpoint must produce the same
   report as an uninterrupted run, sequentially and under --jobs 2. *)

open Hwf_sim
open Hwf_workload
open Hwf_faults
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint

let tmpfile () = Filename.temp_file "hwf_resil_test" ".ckpt.jsonl"

(* [s] with the first occurrence of [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let rec find i =
    if i + n > len then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n)
    else find (i + 1)
  in
  find 0

(* Insert [bad] at the head of the first journaled schedule named
   [member] — a hand edit no runner would write. *)
let corrupt_first_schedule path ~member bad =
  let journal = In_channel.with_open_bin path In_channel.input_all in
  let sub = Printf.sprintf "\"%s\":[" member in
  let edited = replace_first ~sub ~by:(Printf.sprintf "%s%d," sub bad) journal in
  Util.checkb "journal holds a schedule" (edited <> journal);
  Out_channel.with_open_bin path (fun oc -> output_string oc edited)


(* ---- deadlines ---- *)

let test_deadline_wall () =
  let d = Resil.deadline ~wall_s:0.001 () in
  Unix.sleepf 0.01;
  Util.checkb "wall deadline expired" (Resil.expired d);
  (match Resil.check_deadline d with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Resil.Deadline_exceeded _ -> ());
  Util.checkb "fresh deadline not expired"
    (not (Resil.expired (Resil.deadline ~wall_s:60. ())));
  Util.checkb "no_deadline never expires" (not (Resil.expired Resil.no_deadline))

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
    Resil.deadline ~wall_s:0. ()
  in
  let c =
    Resil.run_cell
      ~retry:{ Resil.default_retry with attempts = 2 }
      ~sleep:(fun _ -> ())
      ~deadline_for Resil.check_deadline
  in
  (match c.Resil.outcome with
  | Resil.Timed_out _ -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  Util.checki "both attempts made" 2 c.Resil.attempts;
  Util.check Alcotest.(list int) "builder saw attempt numbers" [ 1; 2 ]
    (List.rev !seen)

(* ---- checkpoint journals ---- *)

(* Run [f] over a journal of JSON values; cell [i]'s key is ["k<i>"]. *)
let with_json ?(key = Printf.sprintf "k%d") ~path ~campaign ~cells ~resume f =
  Checkpoint.with_journal ~path ~resume
    ~campaign:(fun () -> campaign)
    ~cells ~key ~encode:Fun.id
    ~decode:(fun _ v -> Some v)
    (fun t -> f (Option.get t))

let with_json_ok ?key ~path ~campaign ~cells ~resume f =
  match with_json ?key ~path ~campaign ~cells ~resume f with
  | Ok v -> v
  | Error e -> Alcotest.failf "journal: %s" e

(* Run cell [i], which returns [v], through the one cell protocol. *)
let record t i v =
  ignore
    (Checkpoint.cell (Some t) ~should_stop:(fun () -> false) i (fun () ->
         { Resil.outcome = Resil.Ok_cell v; attempts = 1 }))

let str s = Hwf_obs.Json.Str s

let test_checkpoint_roundtrip () =
  let path = tmpfile () in
  with_json_ok ~path ~campaign:"camp" ~cells:3 ~resume:false (fun t ->
      record t 0 (str "p0");
      record t 1 (str "p1");
      record t 0 (str "p0'"));
  (match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (h, entries) ->
    Util.check Alcotest.string "campaign" "camp" h.Checkpoint.campaign;
    Util.checki "cells" 3 h.Checkpoint.cells;
    Util.checki "last-wins dedup" 2 (List.length entries);
    let e0 = List.find (fun e -> e.Checkpoint.idx = 0) entries in
    Util.checkb "last record wins" (e0.Checkpoint.payload = str "p0'"));
  with_json_ok ~path ~campaign:"camp" ~cells:3 ~resume:true (fun t ->
      Util.checkb "restored, last wins" (Checkpoint.restored t 0 = Some (str "p0'"));
      Util.checkb "unjournaled cell restores nothing" (Checkpoint.restored t 2 = None);
      (* A restored cell is not run again. *)
      let c =
        Checkpoint.cell (Some t) ~should_stop:(fun () -> false) 1 (fun () ->
            Alcotest.fail "restored cell ran")
      in
      Util.checkb "restored value" (Resil.cell_value c = Some (str "p1")));
  Sys.remove path

let test_checkpoint_partial_trailing_line () =
  (* A SIGKILL mid-write leaves a partial last line; the loader must
     drop it and keep everything before. *)
  let path = tmpfile () in
  with_json_ok ~path ~campaign:"camp" ~cells:2 ~resume:false (fun t -> record t 0 (str "p0"));
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"cell\":1,\"key\":\"k1\",\"pay";
  close_out oc;
  (match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (_, entries) ->
    Util.checki "partial line dropped" 1 (List.length entries));
  Sys.remove path

let test_checkpoint_campaign_mismatch () =
  let path = tmpfile () in
  with_json_ok ~path ~campaign:"camp-A" ~cells:2 ~resume:false ignore;
  let refused ~campaign ~cells =
    match with_json ~path ~campaign ~cells ~resume:true (fun _ -> Alcotest.fail "ran") with
    | Error _ -> true
    | Ok () -> false
  in
  Util.checkb "resume across campaigns must be refused"
    (refused ~campaign:"camp-B" ~cells:2);
  Util.checkb "resume with a different cell count must be refused"
    (refused ~campaign:"camp-A" ~cells:5);
  Sys.remove path;
  (* A missing file degrades to a fresh journal. *)
  with_json_ok ~path ~campaign:"camp-A" ~cells:2 ~resume:true (fun t ->
      Util.checkb "missing file must restore no entries"
        (Checkpoint.restored t 0 = None && Checkpoint.restored t 1 = None));
  Sys.remove path

let test_checkpoint_v1_refused () =
  (* A journal of the string-payload format names schema hwf-ckpt/1:
     resuming it is refused, not silently re-run. *)
  let path = tmpfile () in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "{\"schema\":\"hwf-ckpt/1\",\"campaign\":\"camp\",\"cells\":1}\n\
         {\"cell\":0,\"key\":\"k0\",\"payload\":\"pass;blocked=0;worst=8\"}\n");
  (match with_json ~path ~campaign:"camp" ~cells:1 ~resume:true ignore with
  | Error e ->
    Util.checkb "names both schemas"
      (Util.contains e "\"hwf-ckpt/1\"" && Util.contains e "expected \"hwf-ckpt/2\"")
  | Ok () -> Alcotest.fail "an hwf-ckpt/1 journal must be refused");
  Sys.remove path

let test_checkpoint_key_and_stop () =
  (* Resume restores only records whose key is the campaign's own, and
     never journals a cell that returned after a stop was requested. *)
  let path = tmpfile () in
  with_json_ok ~path ~campaign:"camp" ~cells:2 ~resume:false (fun t ->
      record t 0 (str "p0");
      let stop = ref false in
      let c =
        Checkpoint.cell (Some t) ~should_stop:(fun () -> !stop) 1 (fun () ->
            stop := true;
            { Resil.outcome = Resil.Ok_cell (str "p1"); attempts = 1 })
      in
      Util.checkb "the cut cell keeps its value" (Resil.cell_value c = Some (str "p1")));
  (match Checkpoint.load ~path with
  | Ok (_, [ e ]) -> Util.checki "only the finished cell journaled" 0 e.Checkpoint.idx
  | _ -> Alcotest.fail "expected one journaled cell");
  with_json_ok ~path ~key:(Printf.sprintf "other%d") ~campaign:"camp" ~cells:2 ~resume:true
    (fun t -> Util.checkb "a key mismatch restores nothing" (Checkpoint.restored t 0 = None));
  Sys.remove path

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

let test_certify_checkpoint_bad_pids () =
  (* The certifier's failure schedules go through the same pid check: a
     hand-edited out-of-range pid makes the record malformed, so the
     plan is re-judged and re-shrunk instead of reporting the edit. *)
  let subject = Suite.negative () in
  let plans = [ Suite.negative_plan ] in
  let reference = Certify.certify subject plans in
  Util.checki "negative control fails" 1 (List.length reference.Certify.failures);
  List.iter
    (fun bad ->
      let path = tmpfile () in
      ignore (Certify.certify ~checkpoint:path subject plans);
      corrupt_first_schedule path ~member:"schedule" bad;
      let resumed = Certify.certify ~checkpoint:path ~resume:true subject plans in
      check_reports (Printf.sprintf "pid %d re-judged" bad) reference resumed;
      Sys.remove path)
    [ -1; 99 ]

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
     deterministic only at jobs = 1; its partial resume re-seeds the
     budget with the journaled claims, blocked prefixes included, so the
     re-run subtrees stop exactly where the uninterrupted search did. *)
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
            (Explore.stats_subtree_runs s);
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

let test_explore_checkpoint_bad_pids () =
  (* A hand-edited journal whose counterexample names a pid outside the
     scenario is malformed: its subtree re-runs instead of restoring a
     counterexample whose decisions do not match its replayed trace. *)
  let open Hwf_adversary in
  let scenario = fig3_scenario ~quantum:1 ~pris:[ 1; 1 ] in
  let reference = Explore.explore ~jobs:1 scenario in
  List.iter
    (fun bad ->
      let path = tmpfile () in
      ignore (Explore.explore ~checkpoint:path scenario);
      corrupt_first_schedule path ~member:"decisions" bad;
      let stats = Explore.make_stats ~jobs:1 scenario in
      let resumed = Explore.explore ~checkpoint:path ~resume:true ~stats scenario in
      let tag = Printf.sprintf "pid %d" bad in
      check_outcomes (tag ^ ": re-run counterexample") reference resumed;
      Util.checkb (tag ^ ": the subtree re-ran")
        (Array.exists (fun n -> n > 0) (Explore.stats_subtree_runs stats));
      Sys.remove path)
    [ -1; 2; 99 ]

let test_explore_checkpoint_jobs () =
  (* Kill-and-resume quantified over the worker count: a campaign cut
     short by [should_stop] must resume to the plain outcome whatever
     jobs the resuming invocation uses — the journal is per subtree at
     every jobs. *)
  let open Hwf_adversary in
  let scenario = fig3_scenario ~quantum:8 ~pris:[ 1; 1; 1 ] in
  let reference = Explore.explore ~jobs:1 scenario in
  List.iter
    (fun jobs ->
      let path = tmpfile () in
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls > 40
      in
      let partial = Explore.explore ~checkpoint:path ~should_stop:stop scenario in
      Util.checkb "interrupted campaign is visibly partial"
        (not (Resil.complete partial.Explore.coverage));
      let resumed = Explore.explore ~checkpoint:path ~resume:true ~jobs scenario in
      check_outcomes (Printf.sprintf "resume at jobs=%d" jobs) reference resumed;
      Sys.remove path)
    [ 1; 2; 3; 4 ]

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
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip, last wins" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "partial trailing line" `Quick
            test_checkpoint_partial_trailing_line;
          Alcotest.test_case "campaign mismatch refused" `Quick
            test_checkpoint_campaign_mismatch;
          Alcotest.test_case "hwf-ckpt/1 refused" `Quick test_checkpoint_v1_refused;
          Alcotest.test_case "key checked, stopped cell not journaled" `Quick
            test_checkpoint_key_and_stop;
        ] );
      ( "certify",
        [
          Alcotest.test_case "kill and resume (sequential)" `Quick
            test_certify_kill_resume_seq;
          Alcotest.test_case "kill and resume (jobs=2)" `Quick
            test_certify_kill_resume_par;
          Alcotest.test_case "out-of-range journaled pids re-run" `Quick
            test_certify_checkpoint_bad_pids;
          Alcotest.test_case "livelock becomes structured timeout" `Quick
            test_certify_timeout_structured;
        ] );
      ( "explore",
        [
          Alcotest.test_case "checkpoint and resume" `Quick
            test_explore_checkpoint_resume;
          Alcotest.test_case "kill and resume across jobs" `Quick
            test_explore_checkpoint_jobs;
          Alcotest.test_case "dpor is campaign identity" `Quick
            test_explore_checkpoint_dpor_identity;
          Alcotest.test_case "restored counterexample" `Quick
            test_explore_checkpoint_resume_counterexample;
          Alcotest.test_case "out-of-range journaled pids re-run" `Quick
            test_explore_checkpoint_bad_pids;
        ] );
    ]
