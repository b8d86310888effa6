open Hwf_sim
open Hwf_core
open Hwf_workload
open Hwf_faults

(* Wait-freedom under halting failures: a process parked forever
   mid-invocation must not stop the others (the paper's Sec. 2 failure
   model). *)

let crashes victims = Plan.crashes (List.map (fun (victim, after) -> { Plan.victim; after }) victims)

let run_crashed ?(step_limit = 1_000) ~config ~victims policy bodies =
  let r = Inject.run ~step_limit ~plan:(crashes victims) ~config ~policy bodies in
  (match Wellformed.check r.trace with
  | [] -> ()
  | v :: _ -> Alcotest.failf "ill-formed: %a" Wellformed.pp_violation v);
  r

let run_with_crash ~config ~victims ~seed ~step_limit bodies =
  run_crashed ~step_limit ~config ~victims (Policy.random ~seed) bodies

(* Every process either finished or was parked by its crash. *)
let survivors_finished (r : Engine.result) = Array.for_all2 ( || ) r.finished r.halted

let test_fig3_tolerates_crash () =
  (* 3 same-priority processes; p2 crashes mid-decide, after its first
     statement (before any preemption can grant it a guarantee, so the
     crash always lands). The survivors must still decide and agree. *)
  for seed = 0 to 29 do
    let config = Util.uni_config ~quantum:8 [ 1; 1; 1 ] in
    let obj = Uni_consensus.make "c" in
    let outs = Array.make 3 None in
    let bodies =
      Array.init 3 (fun pid () ->
          Eff.invocation "decide" (fun () ->
              outs.(pid) <- Some (Uni_consensus.decide obj (100 + pid))))
    in
    let victims = [ (2, 1) ] in
    let r = run_with_crash ~config ~victims ~seed ~step_limit:10_000 bodies in
    Util.checkb "victims parked" r.halted.(2);
    Util.checkb "survivors finished" (survivors_finished r);
    match (outs.(0), outs.(1)) with
    | Some a, Some b ->
      Util.checkb "agree" (a = b);
      Util.checkb "valid" (a >= 100 && a <= 102)
    | _ -> Alcotest.fail "survivor did not decide"
  done

let test_fig7_tolerates_crashes () =
  (* One process per processor crashes mid-decide; the rest agree. *)
  for seed = 0 to 9 do
    let layout = Layout.uniform ~processors:2 ~per_processor:3 in
    let config = Layout.to_config ~quantum:4000 layout in
    let obj = Multi_consensus.make ~config ~name:"mc" ~consensus_number:2 () in
    let outs, bodies =
      Scenarios.propose_once ~n:6 (fun pid v -> Multi_consensus.decide obj ~pid v)
    in
    (* pids 0 (cpu 0) and 3 (cpu 1) crash after their first statement,
       before any preemption can grant them a guarantee *)
    let victims = [ (0, 1); (3, 1) ] in
    let r = run_with_crash ~config ~victims ~seed ~step_limit:4_000_000 bodies in
    Util.checkb "victims parked" (r.halted.(0) && r.halted.(3));
    Util.checkb "survivors finished" (survivors_finished r);
    Util.checkb "survivors agree" (Scenarios.survivors_agree outs [ 1; 2; 4; 5 ] = Ok ())
  done

let test_universal_helps_crashed_announcer () =
  (* A process crashes right after announcing its operation; helpers
     apply it anyway, and survivors keep operating. *)
  for seed = 0 to 19 do
    let config = Util.uni_config ~quantum:3000 [ 1; 1; 1 ] in
    let c = Wf_objects.counter ~name:"c" ~n:3 ~factory:(Wf_objects.uni_factory ()) in
    let results = Array.make 3 (-1) in
    let bodies =
      Array.init 3 (fun pid () ->
          Eff.invocation "incr" (fun () -> results.(pid) <- Wf_objects.incr c ~pid))
    in
    (* p2 executes exactly its announce write (1 statement) then halts *)
    let victims = [ (2, 1) ] in
    let r = run_with_crash ~config ~victims ~seed ~step_limit:100_000 bodies in
    Util.checkb "survivors finished" (survivors_finished r);
    Util.checkb "survivors got distinct positive counts"
      (results.(0) >= 1 && results.(1) >= 1 && results.(0) <> results.(1))
  done

let test_crash_high_priority_blocks_processor () =
  (* The model's caveat: a crashed READY process at top priority blocks
     its whole processor (Axiom 1), so the run halts without finishing —
     wait-freedom is per-scheduled-process, not an aliveness guarantee. *)
  let config = Util.uni_config ~quantum:8 [ 1; 2 ] in
  let x = Shared.make "x" 0 in
  let bodies =
    Array.init 2 (fun _ () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Eff.local "l";
            Shared.write x 1))
  in
  let r =
    run_crashed ~step_limit:10_000 ~config ~victims:[ (1, 1) ] Policy.highest_pid bodies
  in
  Util.checkb "run halts" (r.stop = Engine.All_halted);
  Util.checkb "victim parked" r.halted.(1);
  Util.checkb "low-priority process is stuck" (not r.finished.(0))

let test_renaming_tolerates_crash () =
  (* One-shot renaming stays wait-free and dense among survivors even
     with a claimant crashed mid-acquisition (after its first
     statement, so the crash always lands). *)
  for seed = 0 to 19 do
    let config = Util.uni_config ~quantum:3000 [ 1; 1; 1; 1 ] in
    let r = Renaming.make "names" in
    let got = Array.make 4 0 in
    let bodies =
      Array.init 4 (fun pid () ->
          Eff.invocation "acquire" (fun () -> got.(pid) <- Renaming.acquire r ~pid))
    in
    let victims = [ (3, 1) ] in
    let res = run_with_crash ~config ~victims ~seed ~step_limit:100_000 bodies in
    Util.checkb "victims parked" res.halted.(3);
    Util.checkb "survivors finished" (survivors_finished res);
    let names = [ got.(0); got.(1); got.(2) ] |> List.sort compare in
    Util.checkb "distinct" (List.length (List.sort_uniq compare names) = 3);
    (* dense within N even if the crashed claimant consumed a slot *)
    Util.checkb "within 1..4" (List.for_all (fun n -> n >= 1 && n <= 4) names)
  done

let test_fig9_winner_crash_starves_losers () =
  (* Fig. 9's known weakness: if an election winner crashes before
     publishing, the losers spin forever — precisely why Fig. 7 avoids
     elections. (With a fair scheduler and no crashes, E8 shows it
     terminating.) *)
  let layout = Layout.uniform ~processors:1 ~per_processor:2 in
  let config = Layout.to_config ~quantum:3000 layout in
  let obj = Fair_consensus.make ~config ~name:"fc" ~consensus_number:1 in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "decide" (fun () ->
            ignore (Fair_consensus.decide obj ~pid (100 + pid))))
  in
  (* p0 wins the election (runs first), then crashes before writing
     Output; p1 spins. *)
  let r =
    Inject.run ~step_limit:20_000 ~plan:(crashes [ (0, 12) ]) ~config
      ~policy:(Policy.prefer [ 0 ] ~fallback:Policy.first) bodies
  in
  Util.checkb "loser spins to the step limit" (r.stop = Engine.Step_limit);
  Util.checkb "loser unfinished" (not r.finished.(1))

let test_crash_drains_guarantee_first () =
  (* A victim whose crash point lands inside an active quantum guarantee
     keeps running until the guarantee drains: protected windows belong
     to the scheduler, and parking the process early would forge a
     quantum violation. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let work k pid () =
    Eff.invocation "work" (fun () ->
        for _ = 1 to k do
          Eff.local (Printf.sprintf "s%d" pid)
        done)
  in
  let bodies = [| work 6 0; work 6 1 |] in
  (* p1 runs 1 statement, p2 preempts, p1 resumes with a 4-statement
     guarantee (own step 2); its crash point (after=2) is reached inside
     the protected window, so it runs 3 more statements before parking. *)
  let r =
    run_crashed ~config ~victims:[ (0, 2) ]
      (Policy.scripted ~fallback:Policy.first [ 0; 1; 0 ])
      bodies
  in
  Util.checki "victim drained its guarantee (1 + 4 statements)" 5 r.own_steps.(0);
  Util.checkb "victim parked unfinished" (r.halted.(0) && not r.finished.(0));
  Util.checkb "survivor finished" r.finished.(1);
  Util.checkb "then the run stops" (r.stop = Engine.All_halted)

let test_crash_at_invocation_boundary () =
  (* A crash point equal to the victim's first-invocation length parks
     it between invocations: the first invocation completes, the second
     never begins, and the trace stays well-formed. *)
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let two_invocations pid () =
    for _ = 1 to 2 do
      Eff.invocation "op" (fun () ->
          for _ = 1 to 3 do
            Eff.local (Printf.sprintf "s%d" pid)
          done)
    done
  in
  let bodies = [| two_invocations 0; two_invocations 1 |] in
  let r = run_crashed ~config ~victims:[ (0, 3) ] (Policy.round_robin ()) bodies in
  Util.checki "victim stopped exactly at the boundary" 3 r.own_steps.(0);
  Util.checkb "victim never started invocation 2" (not r.finished.(0));
  Util.checkb "survivor finished" r.finished.(1);
  let victim_invs =
    List.filter
      (function
        | Hwf_sim.Trace.Inv_end { pid = 0; _ } -> true
        | _ -> false)
      (Trace.events r.trace)
  in
  Util.checki "victim's first invocation completed" 1 (List.length victim_invs)

let test_all_victims_stops_run () =
  (* Every process a victim with crash point 0: every runnable process
     is withheld at the first decision and the run stops immediately. *)
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let obj = Uni_consensus.make "c" in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "d" (fun () -> ignore (Uni_consensus.decide obj (100 + pid))))
  in
  let r = run_crashed ~config ~victims:[ (0, 0); (1, 0) ] (Policy.round_robin ()) bodies in
  Util.checkb "stops via All_halted" (r.stop = Engine.All_halted);
  Util.checkb "both victims parked" (r.halted.(0) && r.halted.(1));
  Util.checki "no statement executed" 0 (Trace.statements r.trace);
  Util.checkb "nobody finished" (not (Array.exists Fun.id r.finished))

let test_crash_wrapper_is_conservative () =
  (* With no victims the plan injects nothing. *)
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let obj = Uni_consensus.make "c" in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "d" (fun () -> ignore (Uni_consensus.decide obj pid)))
  in
  let r = run_crashed ~config ~victims:[] (Policy.round_robin ()) bodies in
  Util.checkb "all finish" (Array.for_all Fun.id r.finished)

(* Behaviour pins for the halting-failure injector, as JSONL trace
   digests.

   E15 (bench/exp_crash.ml) in its quick configuration: Fig. 7
   consensus, two processors of three, 0, 1 or 2 victims per processor
   crashing after their first own statement, seeds 0-24 under
   [Policy.random]; one digest per victim count over its 25 traces back
   to back. No preemption can precede a victim's first statement, so
   every victim is parked there and the three digests differ.

   The parking itself is pinned by a crash-point sweep: every single
   victim of three uniprocessor Fig. 3 layouts, crash points 0-12, seeds
   0-4. *)
let digest8 s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let crash_trace ~config ~victims ~seed ~step_limit bodies =
  let r =
    Inject.run ~step_limit ~plan:(crashes victims) ~config ~policy:(Policy.random ~seed)
      bodies
  in
  Hwf_obs.Jsonl.trace_to_string r.trace

let e15_digest ~crash_per_processor =
  let layout = Layout.uniform ~processors:2 ~per_processor:3 in
  let config = Layout.to_config ~quantum:4000 layout in
  let victims =
    List.concat_map
      (fun cpu -> List.init crash_per_processor (fun k -> ((cpu * 3) + k, 1)))
      [ 0; 1 ]
  in
  let buf = Buffer.create 4096 in
  for seed = 0 to 24 do
    let obj = Multi_consensus.make ~config ~name:"mc" ~consensus_number:2 () in
    let _, bodies =
      Scenarios.propose_once ~n:6 (fun pid v -> Multi_consensus.decide obj ~pid v)
    in
    Buffer.add_string buf (crash_trace ~config ~victims ~seed ~step_limit:4_000_000 bodies)
  done;
  digest8 (Buffer.contents buf)

let sweep_digest pris =
  let config = Util.uni_config ~quantum:8 pris in
  let n = List.length pris in
  let buf = Buffer.create 4096 in
  for victim = 0 to n - 1 do
    for after = 0 to 12 do
      for seed = 0 to 4 do
        let obj = Uni_consensus.make "c" in
        let _, bodies = Scenarios.propose_once ~n (fun _ v -> Uni_consensus.decide obj v) in
        Buffer.add_string buf
          (crash_trace ~config ~victims:[ (victim, after) ] ~seed ~step_limit:10_000 bodies)
      done
    done
  done;
  digest8 (Buffer.contents buf)

let e15_pins = [ (0, "2a8d1cc3"); (1, "62989be0"); (2, "1eda4e37") ]
let sweep_pins = [ ([ 1; 1; 1 ], "17249902"); ([ 1; 1; 2 ], "69c6c487"); ([ 1; 2; 3 ], "f0c6588a") ]

let test_trace_pins () =
  let got = List.map (fun (k, _) -> (k, e15_digest ~crash_per_processor:k)) e15_pins in
  Alcotest.(check (list (pair int string))) "E15 digests" e15_pins got;
  let got = List.map (fun (pris, _) -> (pris, sweep_digest pris)) sweep_pins in
  Alcotest.(check (list (pair (list int) string))) "sweep digests" sweep_pins got

let () =
  Alcotest.run "crash"
    [
      ( "halting failures",
        [
          Alcotest.test_case "fig3 tolerates crash" `Quick test_fig3_tolerates_crash;
          Alcotest.test_case "fig7 tolerates crashes" `Slow test_fig7_tolerates_crashes;
          Alcotest.test_case "universal helps crashed announcer" `Quick
            test_universal_helps_crashed_announcer;
          Alcotest.test_case "high-priority crash blocks processor" `Quick
            test_crash_high_priority_blocks_processor;
          Alcotest.test_case "renaming tolerates crash" `Quick test_renaming_tolerates_crash;
          Alcotest.test_case "fig9 winner crash starves losers" `Quick
            test_fig9_winner_crash_starves_losers;
          Alcotest.test_case "no victims = no-op" `Quick test_crash_wrapper_is_conservative;
          Alcotest.test_case "crash drains guarantee first" `Quick
            test_crash_drains_guarantee_first;
          Alcotest.test_case "crash at invocation boundary" `Quick
            test_crash_at_invocation_boundary;
          Alcotest.test_case "all victims stop the run" `Quick test_all_victims_stops_run;
          Alcotest.test_case "trace pins" `Quick test_trace_pins;
        ] );
    ]
