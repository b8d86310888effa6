open Hwf_sim

(* The differential suite behind the engine's hot-path machinery
   (quantum-burst batching, schedulable-list caching, views built on
   read): every run must agree with the naive reference interpreter
   (test/reference), which shares no code with the engine. Each case
   runs the engine as given (batching on where the policy allows it)
   and under a non-burst-safe recording policy (caching on, every view
   it reads audited against the reference's). The matrix crosses the lint
   corpus's workloads (the repo's nastiest subjects — harness misuse,
   spins, priority churn) with fault plans and every policy family,
   including the randomized samplers whose RNG streams the burst
   contract must not perturb. Plus direct unit tests for the packed
   trace encoding and the sink lifecycle. *)

(* ---- differential: engine vs reference interpreter ---- *)

(* Some corpus subjects raise out of the run (harness misuse the engine
   rejects): the two sides must then raise identically. *)
let differential label ~step_limit ~(plan : Hwf_faults.Plan.t) ~config ~policy make =
  let engine policy =
    Hwf_faults.Inject.run ~step_limit ~plan ~config ~policy (make ())
  in
  let reference policy =
    Hwf_reference.Reference.run ~step_limit
      ?cost:(Hwf_faults.Inject.cost_fn plan ~config)
      ~crashes:(Hwf_faults.Inject.crashes plan)
      ?axiom2_active:(Hwf_faults.Inject.gate_fn plan)
      ~config ~policy (make ())
  in
  match Hwf_reference.Reference.differential ~engine ~reference policy with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" label d

let policies =
  [
    ("first", Policy.first);
    ("round-robin", Policy.round_robin ());
    ("by-priority", Policy.by_priority);
    ("random", Policy.random ~seed:11);
    ("naive", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Naive ~seed:3);
    ( "pct",
      Hwf_adversary.Randsched.policy
        (Hwf_adversary.Randsched.Pct { depth = 3 })
        ~seed:5 );
    ("pos", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Pos ~seed:7);
    ("surw", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Surw ~seed:9);
  ]

let plans =
  [
    Hwf_faults.Plan.none;
    Hwf_faults.Plan.crash_at ~victim:0 ~after:3;
    Hwf_faults.Plan.with_axiom2
      (Hwf_faults.Plan.Windows { period = 12; off = 5; phase = 0 })
      Hwf_faults.Plan.none;
    Hwf_faults.Plan.with_cost Hwf_faults.Plan.Slow Hwf_faults.Plan.none;
  ]

(* Every corpus workload under every policy, fault-free: the full
   batching + caching surface. *)
let test_corpus_policies () =
  List.iter
    (fun (case : Hwf_lint_corpus.Corpus.case) ->
      let spec = case.spec in
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "%s/%s" spec.Hwf_lint.Lint.name pname)
            ~step_limit:spec.Hwf_lint.Lint.step_limit ~plan:Hwf_faults.Plan.none
            ~config:spec.Hwf_lint.Lint.config ~policy spec.Hwf_lint.Lint.make)
        policies)
    (Hwf_lint_corpus.Corpus.all ())

(* Every corpus workload under every fault plan: the fault inputs that
   disable batching still go through the cached schedulable list and the
   incremental view machinery, which must agree with the reference. *)
let test_corpus_faults () =
  List.iter
    (fun (case : Hwf_lint_corpus.Corpus.case) ->
      let spec = case.spec in
      List.iter
        (fun (plan : Hwf_faults.Plan.t) ->
          List.iter
            (fun (pname, policy) ->
              differential
                (Printf.sprintf "%s/%s/%s" spec.Hwf_lint.Lint.name plan.label pname)
                ~step_limit:spec.Hwf_lint.Lint.step_limit ~plan
                ~config:spec.Hwf_lint.Lint.config ~policy spec.Hwf_lint.Lint.make)
            [ ("random", Policy.random ~seed:11);
              ( "pct",
                Hwf_adversary.Randsched.policy
                  (Hwf_adversary.Randsched.Pct { depth = 3 })
                  ~seed:5 );
              ("surw", Hwf_adversary.Randsched.policy Hwf_adversary.Randsched.Surw ~seed:9)
            ])
        plans)
    (Hwf_lint_corpus.Corpus.all ())

(* The E19-shaped stress layout: many processes, two priority bands,
   multiple processors — the singleton-level burst mode and the
   version-restore path of the guarantee grant/drain pair fire here in
   volume, which the tiny corpus configs cannot provide. *)
let test_two_band_stress () =
  List.iter
    (fun (n, processors) ->
      let layout =
        List.init n (fun i ->
            Proc.make ~pid:i ~processor:(i mod processors)
              ~priority:(1 + (i / processors mod 2))
              ())
      in
      let config = Config.make ~quantum:6 ~processors ~levels:2 layout in
      let make () =
        Array.init n (fun _ () ->
            for _ = 1 to 12 do
              Eff.invocation "w" (fun () ->
                  for _ = 1 to 8 do
                    Eff.local "s"
                  done)
            done)
      in
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "two-band n=%d p=%d/%s" n processors pname)
            ~step_limit:1_000_000 ~plan:Hwf_faults.Plan.none ~config ~policy make)
        policies)
    [ (16, 1); (16, 4); (48, 2) ]

(* Every stop reason the corpus does not reach, on two-process
   programs: a statement-free spin, a statement spin, an exhausted
   script, and a crashed higher-priority victim blocking the survivor;
   plus the configuration with no processes, which finishes at once.
   The reference must reach the named reason, and the engine agree. *)
let test_stop_reasons () =
  let spin_empty () =
    Array.init 2 (fun _ () ->
        while true do
          Eff.invocation "e" (fun () -> ())
        done)
  in
  let spin () =
    Array.init 2 (fun _ () ->
        Eff.invocation "s" (fun () ->
            while true do
              Eff.local "s"
            done))
  in
  List.iter
    (fun (label, plan, pris, policy, make, expected) ->
      let config = Util.uni_config ~quantum:2 pris in
      differential label ~step_limit:40 ~plan ~config ~policy make;
      let r =
        Hwf_reference.Reference.run ~step_limit:40
          ~crashes:(Hwf_faults.Inject.crashes plan)
          ~config ~policy (make ())
      in
      Util.checkb (label ^ ": reference stop") (r.Engine.stop = expected))
    [
      ("decision limit", Hwf_faults.Plan.none, [ 1; 1 ], Policy.first, spin_empty,
        Engine.Decision_limit);
      ("step limit", Hwf_faults.Plan.none, [ 1; 1 ], Policy.random ~seed:3, spin,
        Engine.Step_limit);
      ("policy stop", Hwf_faults.Plan.none, [ 1; 1 ], Policy.scripted [ 0; 1; 0 ], spin,
        Engine.Policy_stopped);
      ("all halted", Hwf_faults.Plan.crash_at ~victim:0 ~after:2, [ 2; 1 ], Policy.first,
        spin, Engine.All_halted);
      ("no processes", Hwf_faults.Plan.none, [], Policy.first, (fun () -> [||]),
        Engine.All_finished);
    ]

(* A seeded random policy that is not burst-safe: the engine consults it
   at every decision, through the cached schedulable list. *)
let unsafe_random seed =
  Policy.of_factory "random, not burst-safe" (fun () -> Policy.prepare (Policy.random ~seed))

(* The version rule for a rise of the top Ready level: a higher-priority
   process that wakes on a processor whose lower-priority processes are
   Ready silences them, and no other transition changes the version
   before the next decision (the woken process stays Ready from one
   statement to the next). Under policies that are not burst-safe every
   decision goes through the cached schedulable list, with and without
   a crash plan (whose victim never reaches its crash point). *)
let test_wake_above_ready () =
  (* pid 2 (level 2) wakes over pids 0 and 1 (level 1), on one cpu. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1; 2 ] in
  let make () =
    Array.init 3 (fun pid () ->
        Eff.invocation "w" (fun () ->
            for _ = 1 to if pid = 2 then 3 else 6 do
              Eff.local "s"
            done))
  in
  List.iter
    (fun (hook, plan) ->
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "wake above ready/%s/%s" hook pname)
            ~step_limit:1_000 ~plan ~config ~policy make)
        [
          ("script", Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1; 2; 0; 1; 0 ]);
          ("random 1", unsafe_random 1);
          ("random 2", unsafe_random 2);
        ])
    [
      ("no crash", Hwf_faults.Plan.none);
      ("crash", Hwf_faults.Plan.crash_at ~victim:1 ~after:1_000);
    ]

(* The three transitions that park a crash victim must each invalidate
   the cached schedulable list: the victim's own statement, the drain of
   its guarantee (by a statement, or by Inv_end right after a grant on
   the invocation's last statement, where the grant/drain version
   restore would otherwise apply) and Axiom-2 re-enforcement; plus a
   victim listed twice, which parks at the smaller crash point. Two
   equal-priority processes on one cpu; the script (with [Policy.first]
   as fallback once it names a parked victim) makes pid 0 park after
   [parks_at] own statements, which the scripted engine run asserts. *)
let test_parking_transitions () =
  let work ~invs ~stmts () =
    Array.init 2 (fun _ () ->
        for _ = 1 to invs do
          Eff.invocation "w" (fun () ->
              for _ = 1 to stmts do
                Eff.local "s"
              done)
        done)
  in
  let crash = Hwf_faults.Plan.crash_at ~victim:0 in
  List.iter
    (fun (label, quantum, (invs, stmts), plan, script, parks_at) ->
      let config = Util.uni_config ~quantum [ 1; 1 ] in
      let make = work ~invs ~stmts in
      let scripted = Policy.scripted ~fallback:Policy.first script in
      List.iter
        (fun (pname, policy) ->
          differential
            (Printf.sprintf "parking/%s/%s" label pname)
            ~step_limit:1_000 ~plan ~config ~policy make)
        [ ("script", scripted); ("random 1", unsafe_random 1); ("random 2", unsafe_random 2) ];
      let r =
        Hwf_faults.Inject.run ~step_limit:1_000 ~plan ~config ~policy:scripted (make ())
      in
      Util.checkb (label ^ ": victim parked") r.Engine.halted.(0);
      Util.checki (label ^ ": victim's own statements") parks_at r.Engine.own_steps.(0);
      Util.checkb (label ^ ": survivor finished") r.Engine.finished.(1))
    [
      ("own statement", 4, (2, 3), crash ~after:2, [ 0; 0; 1; 1 ], 2);
      ("guarantee drain", 2, (1, 6), crash ~after:2, [ 0; 1; 0; 0; 1; 1 ], 3);
      ("inv end after grant", 4, (2, 3), crash ~after:3, [ 0; 0; 1; 0; 0; 0; 0; 1; 1 ], 3);
      ( "axiom2 re-enforcement",
        8,
        (1, 6),
        Hwf_faults.Plan.with_axiom2
          (Hwf_faults.Plan.Windows { period = 6; off = 3; phase = 0 })
          (crash ~after:2),
        [ 0; 1; 0; 0; 1; 1 ],
        2 );
      ( "listed twice",
        4,
        (2, 3),
        Hwf_faults.Plan.crashes
          [ { victim = 0; after = 5 }; { victim = 0; after = 2 } ],
        [ 0; 0; 1; 1 ],
        2 );
    ]

(* A crash victim that is not a pid of the configuration is rejected,
   identically by the engine and the reference, before anything runs. *)
let test_crash_victim_out_of_range () =
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let make () = Array.init 2 (fun _ () -> Eff.invocation "w" (fun () -> Eff.local "s")) in
  List.iter
    (fun victim ->
      let crashes = [ (1, 1); (victim, 1) ] in
      let expected =
        Invalid_argument (Printf.sprintf "Engine.run: crash victim %d outside [0, 2)" victim)
      in
      Alcotest.check_raises "engine" expected (fun () ->
          ignore (Engine.run ~crashes ~config ~policy:Policy.first (make ())));
      Alcotest.check_raises "reference" expected (fun () ->
          ignore
            (Hwf_reference.Reference.run ~crashes ~config ~policy:Policy.first (make ()))))
    [ 2; -1 ]

(* A solo process's every decision is forced, its first included, so a
   burst-safe policy is never consulted; one that is not burst-safe is
   consulted on every decision. The forced-choice contract makes the
   two runs indistinguishable in the trace. *)
let test_forced_first_decision () =
  let config =
    Config.make ~quantum:4 ~processors:1 ~levels:1
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let body () =
    [|
      (fun () ->
        for _ = 1 to 5 do
          Eff.invocation "w" (fun () ->
              for _ = 1 to 3 do
                Eff.local "s"
              done)
        done);
    |]
  in
  let counted ~burst_safe =
    let calls = ref 0 in
    let policy =
      Policy.of_factory ~burst_safe "counting-first" (fun () ->
          let choose = Policy.prepare Policy.first in
          fun view ->
            incr calls;
            choose view)
    in
    let r = Engine.run ~config ~policy (body ()) in
    (Hwf_obs.Jsonl.trace_to_string r.Engine.trace, !calls)
  in
  let safe_trace, safe_calls = counted ~burst_safe:true in
  let unsafe_trace, unsafe_calls = counted ~burst_safe:false in
  Util.checki "burst-safe policy never consulted" 0 safe_calls;
  Util.checkb "non-burst-safe policy consulted" (unsafe_calls > 0);
  Util.check Alcotest.string "identical traces" unsafe_trace safe_trace

(* ---- packed trace encoding ---- *)

let mk_config n =
  Config.make ~quantum:4 ~processors:1 ~levels:2
    (List.init n (fun i -> Proc.make ~pid:i ~processor:0 ~priority:1 ()))

let sample_events =
  [
    Trace.Inv_begin { pid = 0; inv = 0; label = "work" };
    Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 };
    Trace.Stmt { idx = 1; pid = 0; op = Op.read "x"; inv = 0; cost = 3 };
    Trace.Inv_begin { pid = 1; inv = 0; label = "other" };
    Trace.Set_priority { pid = 1; priority = 2 };
    Trace.Axiom2_gate { at = 2; active = false };
    Trace.Stmt { idx = 2; pid = 1; op = Op.write "x"; inv = 0; cost = 2 };
    Trace.Inv_end { pid = 0; inv = 0; label = "work" };
    Trace.Axiom2_gate { at = 3; active = true };
    (* repeats: the op and label intern tables must hand back the same
       decoded values for re-used ids *)
    Trace.Inv_begin { pid = 0; inv = 1; label = "work" };
    Trace.Stmt { idx = 3; pid = 0; op = Op.read "x"; inv = 1; cost = 1 };
    Trace.Stmt { idx = 4; pid = 0; op = Op.rmw ~var:"x" ~kind:"cas"; inv = 1; cost = 1 };
    Trace.Inv_end { pid = 1; inv = 0; label = "other" };
    Trace.Inv_end { pid = 0; inv = 1; label = "work" };
  ]

let test_packed_round_trip () =
  let t = Trace.create (mk_config 2) in
  List.iter (Trace.add t) sample_events;
  Util.checkb "events round-trip" (Trace.events t = sample_events);
  Util.checki "length" (List.length sample_events) (Trace.length t);
  Util.checki "statements" 5 (Trace.statements t);
  Util.checki "time" 8 (Trace.time t);
  Util.checki "own p0" 4 (Trace.own_statements t 0);
  Util.checki "own p1" 1 (Trace.own_statements t 1);
  (* iter and fold decode the same records as events *)
  let via_iter = ref [] in
  Trace.iter (fun e -> via_iter := e :: !via_iter) t;
  Util.checkb "iter agrees" (List.rev !via_iter = sample_events);
  let n = Trace.fold (fun acc _ -> acc + 1) 0 t in
  Util.checki "fold agrees" (Trace.length t) n;
  (* reset empties the trace but keeps the buffer usable *)
  Trace.reset t;
  Util.checkb "reset: empty" (Trace.events t = []);
  Util.checki "reset: statements" 0 (Trace.statements t);
  Util.checki "reset: own" 0 (Trace.own_statements t 0);
  List.iter (Trace.add t) sample_events;
  Util.checkb "reusable after reset" (Trace.events t = sample_events)

let test_packed_observer_dispatch () =
  (* statements reach on_stmt (fields, no record); everything else
     reaches on_event *)
  let t = Trace.create (mk_config 2) in
  let stmts = ref 0 and others = ref [] in
  Trace.set_sink t
    {
      Trace.on_stmt = (fun ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ -> incr stmts);
      on_event = (fun e -> others := e :: !others);
    };
  List.iter (Trace.add t) sample_events;
  Util.checki "on_stmt calls" 5 !stmts;
  Util.checki "on_event calls" (List.length sample_events - 5) (List.length !others);
  Util.checkb "on_event never sees Stmt"
    (List.for_all (function Trace.Stmt _ -> false | _ -> true) !others)

(* ---- sink lifecycle ---- *)

let two_procs () = mk_config 2

let bodies k =
  Array.init 2 (fun _ () ->
      for _ = 1 to k do
        Eff.invocation "w" (fun () -> Eff.local "s")
      done)

(* A sink counting every event it receives. *)
let counting_sink calls =
  {
    Trace.on_stmt = (fun ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ -> incr calls);
    on_event = (fun _ -> incr calls);
  }

let test_sink_detached_after_run () =
  let trace_buf = Trace.create (two_procs ()) in
  let calls = ref 0 in
  let r =
    Engine.run ~trace_buf ~sink:(counting_sink calls) ~config:(two_procs ())
      ~policy:Policy.first (bodies 3)
  in
  Util.checkb "run finished" (r.Engine.stop = Engine.All_finished);
  Util.checkb "sink saw events" (!calls > 0);
  let seen = !calls in
  Trace.add r.Engine.trace (Trace.Set_priority { pid = 0; priority = 1 });
  Trace.add_stmt r.Engine.trace ~pid:0 ~op:(Op.local "s") ~inv:0 ~cost:1;
  Util.checki "sink detached after normal return" seen !calls

let test_sink_detached_after_raise () =
  let trace_buf = Trace.create (two_procs ()) in
  let calls = ref 0 in
  let boom =
    [|
      (fun () -> Eff.invocation "w" (fun () -> Eff.local "s"));
      (fun () -> failwith "boom");
    |]
  in
  (match
     Engine.run ~trace_buf ~sink:(counting_sink calls) ~config:(two_procs ())
       ~policy:Policy.first boom
   with
  | _ -> Alcotest.fail "expected the body exception to propagate"
  | exception Failure msg -> Util.check Alcotest.string "exn" "boom" msg);
  let seen = !calls in
  Trace.add trace_buf (Trace.Inv_end { pid = 0; inv = 0; label = "post-raise" });
  Trace.add_stmt trace_buf ~pid:0 ~op:(Op.local "s") ~inv:0 ~cost:1;
  Util.checki "sink detached after exception" seen !calls

let test_trace_buf_reuse () =
  (* The same trace buffer serves consecutive runs (the Explore arena
     pattern): each run resets it and yields that run's events only. *)
  let trace_buf = Trace.create (two_procs ()) in
  let r1 =
    Engine.run ~trace_buf ~config:(two_procs ()) ~policy:Policy.first (bodies 2)
  in
  let s1 = Trace.statements r1.Engine.trace in
  let r2 =
    Engine.run ~trace_buf ~config:(two_procs ()) ~policy:Policy.first (bodies 5)
  in
  Util.checkb "same buffer" (r1.Engine.trace == r2.Engine.trace);
  Util.checki "second run's statements only" (5 * s1 / 2) (Trace.statements r2.Engine.trace)

(* live sink-collected metrics equal of_trace *)
let test_metrics_sink_equivalence () =
  let config = mk_config 4 in
  let make () =
    Array.init 4 (fun _ () ->
        for _ = 1 to 6 do
          Eff.invocation "w" (fun () ->
              for _ = 1 to 4 do
                Eff.local "s"
              done)
        done)
  in
  let via_sink, trace =
    let c = Hwf_obs.Metrics.collector config in
    let r =
      Engine.run ~sink:(Hwf_obs.Metrics.sink c) ~config
        ~policy:(Policy.random ~seed:5) (make ())
    in
    (Hwf_obs.Metrics.finish c, r.Engine.trace)
  in
  let via_trace = Hwf_obs.Metrics.of_trace trace in
  Util.checkb "sink = of_trace" (via_sink = via_trace)

let () =
  Alcotest.run "burst"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus x policies" `Quick test_corpus_policies;
          Alcotest.test_case "corpus x fault plans" `Quick test_corpus_faults;
          Alcotest.test_case "two-band stress layouts" `Quick test_two_band_stress;
          Alcotest.test_case "stop reasons" `Quick test_stop_reasons;
          Alcotest.test_case "wake above ready processes" `Quick test_wake_above_ready;
          Alcotest.test_case "crash parking transitions" `Quick test_parking_transitions;
          Alcotest.test_case "crash victim out of range" `Quick
            test_crash_victim_out_of_range;
          Alcotest.test_case "forced first decision skips burst-safe policy" `Quick
            test_forced_first_decision;
        ] );
      ( "packed trace",
        [
          Alcotest.test_case "round trip" `Quick test_packed_round_trip;
          Alcotest.test_case "observer dispatch" `Quick test_packed_observer_dispatch;
        ] );
      ( "observer lifecycle",
        [
          Alcotest.test_case "detached after run" `Quick test_sink_detached_after_run;
          Alcotest.test_case "detached after raise" `Quick test_sink_detached_after_raise;
          Alcotest.test_case "trace_buf reuse" `Quick test_trace_buf_reuse;
          Alcotest.test_case "metrics sink equivalence" `Quick
            test_metrics_sink_equivalence;
        ] );
    ]
