open Hwf_adversary
open Hwf_workload
open Hwf_faults

(* The domain pool and the parallel exploration/certification paths.
   The contract under test is determinism: [~jobs:n] for n > 1 must
   produce outcomes bit-identical to [~jobs:1] — same run counts, same
   verdicts, same (shrunk) counterexamples — whenever the search
   completes within its budgets (docs/PARALLELISM.md). *)

(* ---- the pool itself ---- *)

let test_pool_map_order () =
  let a = Array.init 200 Fun.id in
  let f x = (x * x) + 1 in
  Util.check
    Alcotest.(array int)
    "jobs=4 equals sequential map" (Array.map f a)
    (Hwf_par.Pool.map ~jobs:4 f a)

let test_pool_map_grained () =
  let a = Array.init 97 Fun.id in
  let f x = x * 3 in
  List.iter
    (fun grain ->
      Util.check
        Alcotest.(array int)
        (Printf.sprintf "grain=%d equals sequential map" grain)
        (Array.map f a)
        (Hwf_par.Pool.map ~jobs:4 ~grain f a))
    [ 1; 7; 96; 97; 200 ]

let test_pool_map_edges () =
  Util.check Alcotest.(array int) "empty" [||] (Hwf_par.Pool.map ~jobs:4 succ [||]);
  Util.check Alcotest.(array int) "singleton" [| 2 |] (Hwf_par.Pool.map ~jobs:4 succ [| 1 |])

let test_pool_exception_deterministic () =
  (* Several cells raise; the re-raised exception must be the one of the
     lowest failing index no matter how the domains interleaved. *)
  let a = Array.init 64 Fun.id in
  let f i = if i mod 13 = 5 then failwith (string_of_int i) else i in
  for _ = 1 to 5 do
    match Hwf_par.Pool.map ~jobs:4 f a with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure m -> Util.check Alcotest.string "lowest failing index" "5" m
  done

let test_pool_skips_past_error () =
  (* S2 regression. Cell 0 raises, and index 0 is the global minimum, so
     whichever worker executes chunk 0 must skip the rest of that chunk
     after recording the error — the old worker loop kept evaluating
     after the error was recorded. With two workers the other chunk may
     race ahead of the error becoming visible, so the deterministic
     facts are: the index-0 exception wins, every cell is either
     evaluated or skipped, and at least the remainder of chunk 0 (15
     cells) is skipped. *)
  let n = 32 in
  let a = Array.init n Fun.id in
  let evals = Atomic.make 0 in
  let f i =
    Atomic.incr evals;
    if i = 0 then failwith "cell0" else i
  in
  let stats = Hwf_par.Pool.make_stats ~jobs:2 in
  (match Hwf_par.Pool.map ~jobs:2 ~grain:16 ~stats f a with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Util.check Alcotest.string "index-0 exception" "cell0" m);
  Util.checki "every cell evaluated or skipped" n
    (Hwf_par.Pool.stats_evaluated stats + Hwf_par.Pool.stats_skipped stats);
  Util.checki "stats agree with the cell bodies" (Atomic.get evals)
    (Hwf_par.Pool.stats_evaluated stats);
  Util.checkb "the failing chunk's tail is skipped"
    (Hwf_par.Pool.stats_skipped stats >= 15)

let test_pool_forced_steal () =
  (* Starve one worker: cell 0 (owned by worker 0) spins until every
     other cell is done, so worker 1 must drain its own block and then
     steal worker 0's remaining chunks 1..3 — exactly 3 steals, and the
     result is still the sequential one. Worker 1's first own cell
     (cell 4) gates on cell 0 having started: worker 1 cannot reach its
     steal phase before worker 0 owns chunk 0, so the steal count is
     deterministic even on one core. *)
  let n = 8 in
  let done_ = Atomic.make 0 in
  let started0 = Atomic.make false in
  let f i =
    if i = 0 then begin
      Atomic.set started0 true;
      while Atomic.get done_ < n - 1 do
        Domain.cpu_relax ()
      done
    end
    else if i = 4 then
      while not (Atomic.get started0) do
        Domain.cpu_relax ()
      done;
    Atomic.incr done_;
    i * 10
  in
  let stats = Hwf_par.Pool.make_stats ~jobs:2 in
  let r = Hwf_par.Pool.map ~jobs:2 ~grain:1 ~stats f (Array.init n Fun.id) in
  Util.check
    Alcotest.(array int)
    "stolen chunks land in their slots"
    (Array.init n (fun i -> i * 10))
    r;
  Util.checki "worker 1 stole the starved worker's chunks" 3
    (Hwf_par.Pool.stats_steals stats);
  Util.checki "all chunks claimed exactly once" n (Hwf_par.Pool.stats_claims stats)

let test_pool_scratch_per_worker () =
  (* [map_scratch]: every cell sees the scratch created on its own
     worker, and [make] runs exactly once per worker. Cell 0's worker is
     starved (as above) so both workers demonstrably participate: cells
     1..7 must all carry the non-starved worker's scratch. *)
  let n = 8 in
  let done_ = Atomic.make 0 in
  let started0 = Atomic.make false in
  let next_id = Atomic.make 0 in
  let make () = Atomic.fetch_and_add next_id 1 in
  let f scratch i =
    if i = 0 then begin
      Atomic.set started0 true;
      while Atomic.get done_ < n - 1 do
        Domain.cpu_relax ()
      done
    end
    else if i = 4 then
      while not (Atomic.get started0) do
        Domain.cpu_relax ()
      done;
    Atomic.incr done_;
    (scratch, i * 2)
  in
  let r = Hwf_par.Pool.map_scratch ~jobs:2 ~grain:1 ~make f (Array.init n Fun.id) in
  Array.iteri (fun i (_, y) -> Util.checki "cell result" (i * 2) y) r;
  Util.checki "make ran once per worker" 2 (Atomic.get next_id);
  let s0 = fst r.(0) in
  Array.iteri
    (fun i (s, _) ->
      if i > 0 then
        Util.checkb "stolen cells ran on the thief's scratch" (s <> s0))
    r

let test_pool_worker_death_contained () =
  (* Robustness regression: an exception raised outside [f] — in the
     worker loop itself, here injected at retirement via the test hook —
     used to escape through [Domain.join], bypassing the min-index
     exception contract entirely. It must be recorded and re-raised by
     [map] like any other error. *)
  let hook wid = if wid > 0 then failwith "worker-death" in
  Hwf_par.Pool.worker_retire_test_hook := Some hook;
  Fun.protect
    ~finally:(fun () -> Hwf_par.Pool.worker_retire_test_hook := None)
    (fun () ->
      let a = Array.init 64 Fun.id in
      (match Hwf_par.Pool.map ~jobs:2 succ a with
      | _ -> Alcotest.fail "expected the worker-death exception"
      | exception Failure m ->
        Util.check Alcotest.string "surfaced via map" "worker-death" m);
      (* A real cell error has a lower index than the worker-death
         sentinel, so it must win. *)
      let f i = if i = 5 then failwith "cell5" else i in
      match Hwf_par.Pool.map ~jobs:2 f a with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure m ->
        Util.check Alcotest.string "cell error outranks worker death" "cell5" m)

let test_pool_stats_size_mismatch () =
  (* Robustness regression: stats sized for fewer workers than [map]
     uses silently folded the overflow workers into the last bucket;
     now the mismatch is refused at call time. *)
  let stats = Hwf_par.Pool.make_stats ~jobs:2 in
  let a = Array.init 32 Fun.id in
  (match Hwf_par.Pool.map ~jobs:4 ~stats succ a with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
    Util.checkb "message names the mismatch" (Util.contains m "Pool.map"));
  (* A larger stats array is fine, and every count lands on the true
     worker id — slots past the workers actually used stay zero. *)
  let stats = Hwf_par.Pool.make_stats ~jobs:4 in
  ignore (Hwf_par.Pool.map ~jobs:2 ~stats succ a);
  let per_worker = Hwf_par.Pool.stats_per_worker stats in
  Util.checki "slots sized by make_stats" 4 (Array.length per_worker);
  Util.checki "counts on true worker ids" 32 (per_worker.(0) + per_worker.(1));
  Util.checki "unused slots untouched" 0 (per_worker.(2) + per_worker.(3))

let test_pool_stats () =
  let a = Array.init 100 Fun.id in
  let stats = Hwf_par.Pool.make_stats ~jobs:4 in
  let r = Hwf_par.Pool.map ~jobs:4 ~stats succ a in
  Util.check Alcotest.(array int) "result unaffected" (Array.map succ a) r;
  Util.checki "every cell counted once" 100 (Hwf_par.Pool.stats_evaluated stats);
  Util.checki "nothing skipped" 0 (Hwf_par.Pool.stats_skipped stats);
  Util.checkb "claims cover the array" (Hwf_par.Pool.stats_claims stats >= 100 / 1 / 4);
  Util.checki "per-worker counts sum to total" 100
    (Array.fold_left ( + ) 0 (Hwf_par.Pool.stats_per_worker stats));
  (* Accumulates across calls, and the inline path attributes to worker 0. *)
  ignore (Hwf_par.Pool.map ~jobs:1 ~stats succ a);
  Util.checki "accumulated" 200 (Hwf_par.Pool.stats_evaluated stats)

(* ---- parallel explore ---- *)

let fig3 ~quantum ~pris =
  Scenarios.consensus ~name:"par.f3" ~impl:Scenarios.Fig3 ~quantum
    ~layout:(List.map (fun p -> (0, p)) pris)

let check_outcomes name (o1 : Explore.outcome) (o4 : Explore.outcome) =
  Util.checki (name ^ ": runs") o1.runs o4.runs;
  Util.checkb (name ^ ": exhaustive") (o1.exhaustive = o4.exhaustive);
  match (o1.counterexample, o4.counterexample) with
  | None, None -> ()
  | Some c1, Some c4 ->
    Util.check Alcotest.string (name ^ ": message") c1.message c4.message;
    Util.check
      Alcotest.(list int)
      (name ^ ": decision path") c1.decisions c4.decisions
  | Some _, None -> Alcotest.failf "%s: jobs=4 missed the counterexample" name
  | None, Some _ -> Alcotest.failf "%s: jobs=4 invented a counterexample" name

let test_explore_parallel_identical_pass () =
  (* Q = 8: exhaustive, no violation — counts and flags must agree. *)
  let b = fig3 ~quantum:8 ~pris:[ 1; 1 ] in
  let o1 = Explore.explore ~jobs:1 b.scenario in
  let o4 = Explore.explore ~jobs:4 b.scenario in
  Util.checkb "exhaustive at Q=8" o1.exhaustive;
  check_outcomes "fig3 Q=8 2p" o1 o4;
  let b3 = fig3 ~quantum:8 ~pris:[ 1; 1; 1 ] in
  let o1 = Explore.explore ~preemption_bound:1 ~jobs:1 b3.scenario in
  let o4 = Explore.explore ~preemption_bound:1 ~jobs:4 b3.scenario in
  check_outcomes "fig3 Q=8 3p bounded" o1 o4

let test_explore_parallel_identical_fail () =
  (* Q = 1: the Theorem 1 violation exists; both modes must converge on
     the same first counterexample in canonical schedule order. *)
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  let o1 = Explore.explore ~jobs:1 b.scenario in
  let o4 = Explore.explore ~jobs:4 b.scenario in
  Util.expect_fail "fig3 Q=1 jobs=1" o1;
  Util.expect_fail "fig3 Q=1 jobs=4" o4;
  check_outcomes "fig3 Q=1 2p" o1 o4;
  let b3 = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let o1 = Explore.explore ~jobs:1 b3.scenario in
  let o4 = Explore.explore ~jobs:4 b3.scenario in
  check_outcomes "fig3 Q=1 3p" o1 o4

let counting_scenario b =
  let makes = Atomic.make 0 in
  let scenario =
    Explore.
      {
        b.Scenarios.scenario with
        make =
          (fun () ->
            Atomic.incr makes;
            b.Scenarios.scenario.Explore.make ());
      }
  in
  (makes, scenario)

let test_explore_max_runs_exact () =
  (* Regression (PR 2): the max_runs budget is one global atomic
     counter, claimed once per engine run — the number of runs actually
     performed must never exceed the budget, no matter how many domains
     race on it. *)
  let b = fig3 ~quantum:8 ~pris:[ 1; 1; 1 ] in
  let makes, scenario = counting_scenario b in
  let o = Explore.explore ~jobs:4 ~max_runs:25 scenario in
  Util.checkb "no overshoot past max_runs" (Atomic.get makes <= 25);
  Util.checkb "reported runs within budget" (o.runs <= 25);
  Util.checkb "truncated search is not exhaustive" (not o.exhaustive);
  let makes1, scenario1 = counting_scenario b in
  let o1 = Explore.explore ~jobs:1 ~max_runs:25 scenario1 in
  Util.checki "sequential spends the whole budget" 25 (Atomic.get makes1);
  Util.checki "sequential reports the budget" 25 o1.runs

let test_explore_jobs_grain_matrix () =
  (* The determinism contract quantified over the knobs: any jobs/grain
     combination must reproduce the sequential outcome bit for bit,
     counterexample path included. *)
  let b = fig3 ~quantum:1 ~pris:[ 1; 1 ] in
  let o1 = Explore.explore ~jobs:1 b.scenario in
  Util.expect_fail "fig3 Q=1 baseline" o1;
  List.iter
    (fun jobs ->
      List.iter
        (fun grain ->
          let o = Explore.explore ~jobs ~grain b.scenario in
          check_outcomes (Printf.sprintf "jobs=%d grain=%d" jobs grain) o1 o)
        [ 1; 2; 3 ])
    [ 2; 4; 8 ]

let test_random_runs_parallel_identical () =
  let b = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let o1 = Explore.sample ~strategy:Randsched.Naive ~runs:200 ~seed:5 ~jobs:1 b.scenario in
  let o4 = Explore.sample ~strategy:Randsched.Naive ~runs:200 ~seed:5 ~jobs:4 b.scenario in
  Util.checki "same first failing run" o1.runs o4.runs;
  match (o1.counterexample, o4.counterexample) with
  | Some c1, Some c4 -> Util.check Alcotest.string "same message" c1.message c4.message
  | None, None -> ()
  | _ -> Alcotest.fail "naive sample: jobs=1 and jobs=4 verdicts differ"

let test_random_runs_grain_identical () =
  let b = fig3 ~quantum:1 ~pris:[ 1; 1; 1 ] in
  let o1 = Explore.sample ~strategy:Randsched.Naive ~runs:100 ~seed:5 ~jobs:1 b.scenario in
  List.iter
    (fun grain ->
      let o = Explore.sample ~strategy:Randsched.Naive
          ~runs:100 ~seed:5 ~jobs:4 ~grain b.scenario in
      Util.checki (Printf.sprintf "grain=%d: same first failing run" grain) o1.runs
        o.runs;
      match (o1.counterexample, o.counterexample) with
      | Some c1, Some c -> Util.check Alcotest.string "same message" c1.message c.message
      | None, None -> ()
      | _ -> Alcotest.failf "naive sample grain=%d: verdict differs from jobs=1" grain)
    [ 1; 7; 50 ]

(* ---- parallel certify ---- *)

let check_reports name (r1 : Certify.report) (r4 : Certify.report) =
  Util.checki (name ^ ": plans") r1.plans r4.plans;
  Util.checki (name ^ ": passed") r1.passed r4.passed;
  Util.checki (name ^ ": blocked") r1.blocked r4.blocked;
  Util.checki (name ^ ": worst own-steps") r1.worst_own_steps r4.worst_own_steps;
  Util.checki (name ^ ": failures") (List.length r1.failures) (List.length r4.failures);
  List.iter2
    (fun (f1 : Certify.failure) (f4 : Certify.failure) ->
      Util.check Alcotest.string (name ^ ": failure message") f1.message f4.message;
      Util.check
        Alcotest.(list int)
        (name ^ ": shrunk schedule") f1.schedule f4.schedule;
      Util.checki (name ^ ": shrunk_from") f1.shrunk_from f4.shrunk_from)
    r1.failures r4.failures

let test_certify_parallel_identical_clean () =
  (* A full quick campaign (crash sweep + chaos) on Fig. 3: every cell
     passes, and the parallel report must match count for count. *)
  let subject = Suite.fig3 ~seed:17 () in
  let plans = Suite.campaign ~quick:true ~seed:17 subject in
  Util.checkb "campaign is non-trivial" (List.length plans > 4);
  let r1 = Certify.certify ~jobs:1 subject plans in
  let r4 = Certify.certify ~jobs:4 subject plans in
  Util.checkb "fig3 certifies" (Certify.certified r1);
  check_reports "fig3 quick campaign" r1 r4

let test_certify_parallel_identical_failures () =
  (* The negative control fails under the Axiom-2-suspended plan; a
     mixed pass/fail plan list must fold back into an identical report,
     including each failure's shrunk schedule. *)
  let subject = Suite.negative () in
  let plans = [ Plan.none; Suite.negative_plan; Plan.none; Suite.negative_plan ] in
  let r1 = Certify.certify ~jobs:1 subject plans in
  let r4 = Certify.certify ~jobs:4 subject plans in
  Util.checki "two rejected cells" 2 (List.length r1.failures);
  check_reports "negative control" r1 r4;
  (* Grain must be invisible in the report too. *)
  List.iter
    (fun grain ->
      let r = Certify.certify ~jobs:3 ~grain subject plans in
      check_reports (Printf.sprintf "negative control grain=%d" grain) r1 r)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "grained map" `Quick test_pool_map_grained;
          Alcotest.test_case "edge sizes" `Quick test_pool_map_edges;
          Alcotest.test_case "skips cells past a recorded error" `Quick
            test_pool_skips_past_error;
          Alcotest.test_case "forced steal" `Quick test_pool_forced_steal;
          Alcotest.test_case "scratch per worker" `Quick test_pool_scratch_per_worker;
          Alcotest.test_case "stats hook" `Quick test_pool_stats;
          Alcotest.test_case "deterministic exceptions" `Quick
            test_pool_exception_deterministic;
          Alcotest.test_case "worker death contained" `Quick
            test_pool_worker_death_contained;
          Alcotest.test_case "stats size mismatch refused" `Quick
            test_pool_stats_size_mismatch;
        ] );
      ( "explore",
        [
          Alcotest.test_case "jobs=4 identical (pass)" `Quick
            test_explore_parallel_identical_pass;
          Alcotest.test_case "jobs=4 identical (counterexample)" `Quick
            test_explore_parallel_identical_fail;
          Alcotest.test_case "max_runs exact under fan-out" `Quick
            test_explore_max_runs_exact;
          Alcotest.test_case "jobs x grain identity matrix" `Quick
            test_explore_jobs_grain_matrix;
          Alcotest.test_case "random_runs jobs=4 identical" `Quick
            test_random_runs_parallel_identical;
          Alcotest.test_case "random_runs grain identical" `Quick
            test_random_runs_grain_identical;
        ] );
      ( "certify",
        [
          Alcotest.test_case "jobs=4 identical report (clean)" `Quick
            test_certify_parallel_identical_clean;
          Alcotest.test_case "jobs=4 identical report (failures)" `Quick
            test_certify_parallel_identical_failures;
        ] );
    ]
