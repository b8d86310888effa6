open Hwf_sim
open Hwf_adversary
open Hwf_workload

(* Sleep-set pruning (docs/PARALLELISM.md). The contract under test:
   verdicts, counterexamples and exhaustiveness are invariant under
   pruning; run counts shrink on multiprocessor scenarios and are
   untouched on uniprocessor ones. Pruning is valid by construction:
   a process observes nothing global outside its [Shared] footprints
   ([Eff.stamp] counts its own processor's statements only). *)

let check_outcomes name (a : Explore.outcome) (b : Explore.outcome) =
  Util.checki (name ^ ": runs") a.runs b.runs;
  Util.checkb (name ^ ": exhaustive") (a.exhaustive = b.exhaustive);
  match (a.counterexample, b.counterexample) with
  | None, None -> ()
  | Some ca, Some cb ->
    Util.check Alcotest.string (name ^ ": message") ca.message cb.message;
    Util.check Alcotest.(list int) (name ^ ": decision path") ca.decisions cb.decisions
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: pruning changed the verdict" name

(* A two-processor scenario: one process per cpu, so every scheduler
   decision is a genuine cross-processor interleaving choice — the
   setting sleep sets are for. [mk] builds fresh shared state per run
   and returns the programs plus a final-state predicate (evaluated on
   quiescent state via peek, so it is invariant under commuting
   independent transitions — exactly the checks pruning preserves). *)
let two_cpu ~name mk =
  let layout = [ (0, 1); (1, 1) ] in
  let config = Layout.to_config ~quantum:4 layout in
  let make () =
    let programs, finals = mk () in
    let check (r : Engine.result) =
      if not (Array.for_all Fun.id r.Engine.finished) then
        Error "not all processes finished"
      else finals ()
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }

(* Disjoint footprints: P0 only touches [a], P1 only touches [b], so
   every cross-processor pair of transitions commutes and the pruned
   search collapses to a handful of representatives. *)
let disjoint () =
  two_cpu ~name:"dpor.disjoint" (fun () ->
      let a = Shared.make "a" 0 and b = Shared.make "b" 0 in
      let bump v = Shared.write v (Shared.read v + 1) in
      let programs =
        [|
          (fun () -> Eff.invocation "p0" (fun () -> bump a; bump a));
          (fun () -> Eff.invocation "p1" (fun () -> bump b; bump b));
        |]
      in
      let finals () =
        if Shared.peek a = 2 && Shared.peek b = 2 then Ok ()
        else Error (Fmt.str "bad finals a=%d b=%d" (Shared.peek a) (Shared.peek b))
      in
      (programs, finals))

(* A real data race: both processes do a read-modify-write on [x]
   without atomicity, so interleaved schedules lose an update. The
   counterexample must survive pruning byte for byte. *)
let lost_update () =
  two_cpu ~name:"dpor.lost-update" (fun () ->
      let x = Shared.make "x" 0 in
      let incr () =
        let v = Shared.read x in
        Shared.write x (v + 1)
      in
      let programs =
        [|
          (fun () -> Eff.invocation "p0" incr);
          (fun () -> Eff.invocation "p1" incr);
        |]
      in
      let finals () =
        let v = Shared.peek x in
        if v = 2 then Ok () else Error (Fmt.str "lost update: x=%d" v)
      in
      (programs, finals))

let fig3 ~quantum =
  Scenarios.consensus ~name:"dpor.f3" ~impl:Scenarios.Fig3 ~quantum
    ~layout:[ (0, 1); (0, 1) ]

(* ---- tests ---- *)

let test_uniprocessor_identical () =
  (* All scheduler accounting is per-processor, so on one processor
     nothing commutes: pruning must be a no-op, bit for bit. *)
  List.iter
    (fun quantum ->
      let b = fig3 ~quantum in
      let stats = Explore.make_stats ~jobs:1 b.scenario in
      let dp = Explore.explore ~stats b.scenario in
      let full = Explore.explore ~dpor:false b.scenario in
      check_outcomes (Printf.sprintf "fig3 Q=%d" quantum) full dp;
      Util.checki "nothing pruned on a uniprocessor" 0 (Explore.stats_pruned stats))
    [ 1; 8 ]

let test_multiprocessor_prunes () =
  let s = disjoint () in
  let stats = Explore.make_stats ~jobs:1 s in
  let full = Explore.explore ~dpor:false s in
  let pruned = Explore.explore ~stats s in
  Util.checkb "full search is exhaustive" full.exhaustive;
  Util.checkb "pruned search is exhaustive" pruned.exhaustive;
  Util.checkb "both verdicts clean"
    (full.counterexample = None && pruned.counterexample = None);
  Util.checkb
    (Printf.sprintf "pruning shrinks the run count (%d < %d)" pruned.runs full.runs)
    (pruned.runs < full.runs);
  Util.checkb "skipped branches are counted" (Explore.stats_pruned stats > 0)

let test_counterexample_preserved () =
  let s = lost_update () in
  let full = Explore.explore ~dpor:false s in
  let pruned = Explore.explore s in
  (match full.counterexample with
  | None -> Alcotest.fail "expected the lost-update counterexample"
  | Some c -> Util.checkb "message names the race" (Util.contains c.message "lost update"));
  (* The canonical-first counterexample is never pruned: an equivalent
     earlier representative would have failed first. *)
  Util.checkb "pruned finds it in no more runs" (pruned.runs <= full.runs);
  match (full.counterexample, pruned.counterexample) with
  | Some cf, Some cp ->
    Util.check Alcotest.string "same message" cf.message cp.message;
    Util.check Alcotest.(list int) "same decision path" cf.decisions cp.decisions
  | _ -> Alcotest.fail "pruning changed the verdict"

let test_jobs_identity_under_dpor () =
  (* Sleep sets are a pure function of the decision prefix, so pruning
     must commute with the parallel fan-out at any jobs. *)
  List.iter
    (fun s ->
      let o1 = Explore.explore ~jobs:1 s in
      List.iter
        (fun jobs ->
          let o = Explore.explore ~jobs s in
          check_outcomes (Printf.sprintf "%s jobs=%d" s.Explore.name jobs) o1 o)
        [ 2; 3; 4 ])
    [ disjoint (); lost_update () ]

let test_hist_wrap_prunable () =
  (* History recording through [Hist.wrap] reads per-processor
     timestamps ([Eff.stamp]): the scenario stays prunable, with the
     verdict (a linearizability check over the recorded history)
     preserved. *)
  let module Hist = Hwf_check.Hist in
  let module Lincheck = Hwf_check.Lincheck in
  let spec =
    Lincheck.make_spec ~init:0 ~apply:(fun s op ->
        match op with `Add d -> (s + d, `Old s))
  in
  let s =
    two_cpu ~name:"dpor.hist-wrap" (fun () ->
        let c = Shared.make "hw.c" 0 in
        let hist = Hist.create () in
        let add pid d =
          ignore
            (Hist.wrap hist ~pid (`Add d) (fun () ->
                 let v = Shared.read c in
                 Shared.write c (v + d);
                 `Old v))
        in
        let programs =
          [|
            (fun () -> Eff.invocation "p0" (fun () -> add 0 1));
            (fun () -> Eff.invocation "p1" (fun () -> add 1 2));
          |]
        in
        (programs, fun () -> Lincheck.check_hist spec hist))
  in
  let stats = Explore.make_stats ~jobs:1 s in
  let full = Explore.explore ~dpor:false s in
  let dp = Explore.explore ~stats s in
  (* No Invalid_argument, same verdict; this scenario's accesses all
     conflict on [hw.c], so pruning may or may not shrink it — the
     point is that recording cost it nothing. *)
  Util.checkb "exhaustive agrees" (full.exhaustive = dp.exhaustive);
  Util.checkb "verdict agrees"
    ((full.counterexample = None) = (dp.counterexample = None));
  Util.checkb "pruned within full" (dp.runs <= full.runs)

let test_source_prunes_counted () =
  (* Three processes on three processors with overlapping conflicts
     produce sleep-set blocked prefixes; the refinement must discard
     them without a verdict check and count them, with the verdict and
     exhaustiveness unchanged against the unpruned search. *)
  let layout = [ (0, 1); (1, 1); (2, 1) ] in
  let config = Layout.to_config ~quantum:4 layout in
  let make () =
    let a = Shared.make "sp.a" 0 and b = Shared.make "sp.b" 0 in
    let programs =
      [|
        (fun () -> Eff.invocation "p0" (fun () -> Shared.write a 1; Shared.write b 1));
        (fun () -> Eff.invocation "p1" (fun () -> Shared.write a 2; Shared.write b 2));
        (fun () -> Eff.invocation "p2" (fun () -> Shared.write b 3; Shared.write a 3));
      |]
    in
    let check (r : Engine.result) =
      if Array.for_all Fun.id r.Engine.finished then Ok ()
      else Error "not all processes finished"
    in
    Explore.{ programs; check }
  in
  let s = Explore.{ name = "dpor.source-sets"; config; make } in
  let stats = Explore.make_stats ~jobs:1 s in
  let full = Explore.explore ~dpor:false s in
  let dp = Explore.explore ~stats s in
  Util.checkb "exhaustive" (full.exhaustive && dp.exhaustive);
  Util.checkb "clean verdicts"
    (full.counterexample = None && dp.counterexample = None);
  Util.checkb
    (Printf.sprintf "pruning shrinks runs (%d < %d)" dp.runs full.runs)
    (dp.runs < full.runs);
  Util.checkb "sleep prunes counted" (Explore.stats_pruned stats > 0);
  (* Blocked prefixes are not verdict-checked runs: every counted run
     is a distinct completed schedule, and the discards are visible. *)
  Util.checkb "source prunes counted separately"
    (Explore.stats_source_prunes stats >= 0)

let test_preemption_bound_disarms () =
  (* Context bounding restricts the candidate lists, which breaks the
     "explored or slept" invariant — the two reductions are never armed
     together. *)
  let s = disjoint () in
  let stats = Explore.make_stats ~jobs:1 s in
  let bounded_full = Explore.explore ~preemption_bound:1 ~dpor:false s in
  let bounded_dp = Explore.explore ~preemption_bound:1 ~stats s in
  check_outcomes "bounded search identical" bounded_full bounded_dp;
  Util.checki "nothing pruned under a preemption bound" 0 (Explore.stats_pruned stats)

let test_diverging_replay_raises () =
  (* [make] alternates between two bodies, so a replayed prefix can name
     a candidate index the new run does not have. The search must refuse
     loudly, naming the scenario and the depth, rather than silently
     taking another branch. *)
  let flip = ref false in
  let s =
    two_cpu ~name:"dpor.nondeterministic" (fun () ->
        flip := not !flip;
        let a = Shared.make "a" 0 and b = Shared.make "b" 0 in
        let p1 =
          if !flip then fun () -> Shared.write b 1; Shared.write b 2
          else fun () -> Shared.write b 1
        in
        let programs =
          [|
            (fun () -> Eff.invocation "p0" (fun () -> Shared.write a 1; Shared.write a 2));
            (fun () -> Eff.invocation "p1" p1);
          |]
        in
        (programs, fun () -> Ok ()))
  in
  match Explore.explore ~dpor:false s with
  | o -> Alcotest.failf "expected Invalid_argument, got %d runs" o.runs
  | exception Invalid_argument m ->
    Util.checkb "message names the scenario" (Util.contains m "dpor.nondeterministic");
    Util.checkb "message names the depth" (Util.contains m "depth")

let test_diverging_replay_same_width_raises () =
  (* cpu 1 runs a high- and a low-priority process; [make] alternates
     between one and three statements for the high one. Once it has
     executed one, the first program offers cpu 0's process and the
     finished one's low neighbour, the second cpu 0's process and the
     still-ready high one (Axiom 1 blocks the low one): the same number
     of candidates, another pid. No prefix index leaves its range, so
     only comparing the offered candidates with the recorded ones stops
     the search from silently exploring the other program. *)
  let flip = ref false in
  let config = Layout.to_config ~quantum:2 [ (0, 1); (1, 2); (1, 1) ] in
  let make () =
    flip := not !flip;
    let a = Shared.make "a" 0 and b = Shared.make "b" 0 and c = Shared.make "c" 0 in
    let writes v k () = for i = 1 to k do Shared.write v i done in
    let programs =
      [|
        (fun () -> Eff.invocation "p0" (writes a 1));
        (fun () -> Eff.invocation "hi" (writes b (if !flip then 1 else 3)));
        (fun () -> Eff.invocation "lo" (writes c 1));
      |]
    in
    Explore.{ programs; check = (fun _ -> Ok ()) }
  in
  let s = Explore.{ name = "dpor.swapped"; config; make } in
  match Explore.explore ~dpor:false s with
  | o -> Alcotest.failf "expected Invalid_argument, got %d runs" o.runs
  | exception Invalid_argument m ->
    Util.checkb "message names the scenario" (Util.contains m "dpor.swapped");
    Util.checkb "message names the depth" (Util.contains m "depth")

let test_diverging_replay_ends_early_raises () =
  (* Two level-3 processes and a level-2 one share cpu 0. On its first
     call [make] builds programs where each level-3 process makes one
     invocation, then drops to level 1 and makes a second; on later
     calls it stops after the first invocation. Until the level-2
     process finishes, both programs offer the same candidates (Axiom 1
     blocks a dropped process as it blocks a finished one), so no
     replayed slot differs; then the shorter program ends, where the
     recorded one went on to a decision between the two dropped
     processes. Every later run is of the shorter program, so only
     checking where the run ended stops the search from returning a
     verdict on a program the probe never ran. *)
  let calls = ref 0 in
  let config = Layout.to_config ~quantum:2 [ (0, 3); (0, 3); (0, 2) ] in
  let make () =
    incr calls;
    let long = !calls = 1 in
    let a = Shared.make "a" 0 and b = Shared.make "b" 0 and c = Shared.make "c" 0 in
    let twice v () =
      Eff.invocation "first" (fun () -> Shared.write v 1);
      if long then begin
        Eff.set_priority 1;
        Eff.invocation "second" (fun () -> Shared.write v 2)
      end
    in
    let programs =
      [| twice a; twice b; (fun () -> Eff.invocation "lo" (fun () -> Shared.write c 1)) |]
    in
    Explore.{ programs; check = (fun _ -> Ok ()) }
  in
  let s = Explore.{ name = "dpor.shortened"; config; make } in
  match Explore.explore ~dpor:false s with
  | o -> Alcotest.failf "expected Invalid_argument, got %d runs" o.runs
  | exception Invalid_argument m ->
    Util.checkb "message names the scenario" (Util.contains m "dpor.shortened");
    Util.checkb "message says the run ended" (Util.contains m "ended")

(* ---- pinned search: exact counters of fixed campaigns ----

   The decision path of [Explore.run_one] is tuned for allocation, not
   for meaning: every change to it must leave the search exactly where
   it was. Each case below is summarised as one line — verdict runs,
   exhaustiveness, the stats counters, and a digest of the
   counterexample — and compared with the line recorded when the
   search was last changed on purpose. *)

let fig7_mp () =
  (Scenarios.consensus ~name:"dpor.pin.fig7"
     ~impl:(Scenarios.Fig7 { consensus_number = 2 })
     ~quantum:8
     ~layout:[ (0, 1); (1, 1); (0, 1) ])
    .Scenarios.scenario

(* The certified static oracle [hybridsim explore --indep] uses. *)
let indep_relation (s : Explore.scenario) =
  match Registry.static_relation s with
  | Ok (rel, _, _) -> rel
  | Error m -> Alcotest.failf "oracle refuted on %s: %s" s.name m

let digest8 s = String.sub (Digest.to_hex (Digest.string s)) 0 8

(* [scheds] digests the statement pid sequence of every verdict-checked
   run, in order: the set and order of the explored schedules. *)
let summary ?preemption_bound ?max_runs ?dpor ?relation (s : Explore.scenario) =
  let b = Buffer.create 4096 in
  let record (r : Engine.result) =
    Trace.iter
      (function
        | Trace.Stmt { pid; _ } -> Buffer.add_string b (string_of_int pid)
        | _ -> ())
      r.trace;
    Buffer.add_char b ';'
  in
  let make () =
    let i = s.make () in
    { i with Explore.check = (fun r -> record r; i.check r) }
  in
  let stats = Explore.make_stats ~jobs:1 s in
  let o =
    Explore.explore ?preemption_bound ?max_runs ?dpor ?relation ~step_limit:8_000_000
      ~stats { s with make }
  in
  let cx =
    match o.counterexample with
    | None -> "none"
    | Some c ->
      Printf.sprintf "%d:%s:%s" (List.length c.decisions)
        (digest8 (String.concat " " (List.map string_of_int c.decisions)))
        (digest8 c.message)
  in
  Printf.sprintf "runs=%d exh=%b pruned=%d src=%d subtrees=%s cx=%s scheds=%s" o.runs
    o.exhaustive
    (Explore.stats_pruned stats)
    (Explore.stats_source_prunes stats)
    (String.concat "," (Array.to_list (Array.map string_of_int (Explore.stats_subtree_runs stats))))
    cx
    (digest8 (Buffer.contents b))

(* Digest of every pid sequence [iter_schedules] enumerates, in order. *)
let schedules_digest s =
  let b = Buffer.create 4096 in
  let runs =
    Explore.iter_schedules s ~f:(fun ~pids _ ->
        List.iter (fun p -> Buffer.add_string b (string_of_int p)) pids;
        Buffer.add_char b ';';
        `Continue)
  in
  Printf.sprintf "runs=%d digest=%s" runs (digest8 (Buffer.contents b))

let test_pinned_search () =
  let f7 = fig7_mp () in
  let indep = indep_relation f7 in
  let queue =
    Scenarios.universal_queue ~name:"dpor.pin.queue" ~quantum:4 ~consensus_number:2
      ~layout:[ (0, 1); (1, 1) ] ~ops_per:1
  in
  let cases =
    [
      ( "fig7 base 7",
        (fun () -> summary ~max_runs:7 f7),
        "runs=4 exh=false pruned=3 src=3 subtrees=4,0,0 cx=none scheds=742e8599" );
      ( "fig7 base 200",
        (fun () -> summary ~max_runs:200 f7),
        "runs=101 exh=false pruned=4851 src=99 subtrees=101,0,0 cx=none scheds=5a0b8eb5" );
      ( "fig7 base 2000",
        (fun () -> summary ~max_runs:2000 f7),
        "runs=771 exh=false pruned=294528 src=1229 subtrees=771,0,0 cx=none scheds=11ccd744" );
      ( "fig7 indep 7",
        (fun () -> summary ~max_runs:7 ~relation:indep f7),
        "runs=4 exh=false pruned=3 src=3 subtrees=4,0,0 cx=none scheds=742e8599" );
      ( "fig7 indep 200",
        (fun () -> summary ~max_runs:200 ~relation:indep f7),
        "runs=101 exh=false pruned=4851 src=99 subtrees=101,0,0 cx=none scheds=5a0b8eb5" );
      ( "fig7 indep 2000",
        (fun () -> summary ~max_runs:2000 ~relation:indep f7),
        "runs=771 exh=false pruned=294528 src=1229 subtrees=771,0,0 cx=none scheds=11ccd744" );
      ( "fig3 q=1",
        (fun () -> summary (fig3 ~quantum:1).scenario),
        "runs=1377 exh=false pruned=0 src=0 subtrees=1377,0 cx=16:851445bd:ba3bde25 scheds=ee3d62ce" );
      ( "fig3 q=8",
        (fun () -> summary (fig3 ~quantum:8).scenario),
        "runs=114 exh=true pruned=0 src=0 subtrees=57,57 cx=none scheds=a80f522f" );
      ( "queue 2-cpu",
        (fun () -> summary ~max_runs:500 queue),
        "runs=6 exh=false pruned=421 src=494 subtrees=6,0 cx=none scheds=3191c248" );
      ( "fig7 preemption_bound 1",
        (fun () -> summary ~preemption_bound:1 ~max_runs:500 f7),
        "runs=500 exh=false pruned=0 src=0 subtrees=500,0,0 cx=none scheds=e23ae605" );
      ( "fig7 dpor:false",
        (fun () -> summary ~dpor:false ~max_runs:500 f7),
        "runs=500 exh=false pruned=0 src=0 subtrees=500,0,0 cx=none scheds=834354f8" );
      ( "iter_schedules fig3 q=2",
        (fun () -> schedules_digest (fig3 ~quantum:2).scenario),
        "runs=1296 digest=3da0da80" );
    ]
  in
  List.iter (fun (name, run, expected) -> Util.check Alcotest.string name expected (run ())) cases

let () =
  Alcotest.run "dpor"
    [
      ( "sleep-sets",
        [
          Alcotest.test_case "uniprocessor: pruning is a no-op" `Quick
            test_uniprocessor_identical;
          Alcotest.test_case "multiprocessor: prunes, same verdict" `Quick
            test_multiprocessor_prunes;
          Alcotest.test_case "counterexample preserved" `Quick
            test_counterexample_preserved;
          Alcotest.test_case "jobs identity under dpor" `Quick
            test_jobs_identity_under_dpor;
          Alcotest.test_case "hist.wrap stays prunable" `Quick test_hist_wrap_prunable;
          Alcotest.test_case "source-set prunes counted" `Quick
            test_source_prunes_counted;
          Alcotest.test_case "preemption bound disarms" `Quick
            test_preemption_bound_disarms;
          Alcotest.test_case "diverging replay raises" `Quick test_diverging_replay_raises;
          Alcotest.test_case "diverging replay of equal width raises" `Quick
            test_diverging_replay_same_width_raises;
          Alcotest.test_case "diverging replay that ends early raises" `Quick
            test_diverging_replay_ends_early_raises;
          Alcotest.test_case "pinned search counters" `Slow test_pinned_search;
        ] );
    ]
