open Hwf_sim

(* A body performing [k] statements in one invocation, logging the global
   statement index of each of its executions into [log]. *)
let logger_body log pid k () =
  Eff.invocation "work" (fun () ->
      for _ = 1 to k do
        Eff.local "s";
        log := (pid, Eff.now ()) :: !log
      done)

let test_config_validation () =
  let p pid pri = Proc.make ~pid ~processor:0 ~priority:pri () in
  Alcotest.check_raises "bad pid order"
    (Invalid_argument "Config.make: pids must be 0..N-1 in order") (fun () ->
      ignore (Config.uniprocessor ~quantum:1 ~levels:1 [ p 1 1 ]));
  Alcotest.check_raises "priority range"
    (Invalid_argument "Config.make: priority out of range") (fun () ->
      ignore (Config.uniprocessor ~quantum:1 ~levels:1 [ p 0 2 ]));
  Alcotest.check_raises "processor range"
    (Invalid_argument "Config.make: processor out of range") (fun () ->
      ignore
        (Config.make ~quantum:1 ~processors:1 ~levels:1
           [ Proc.make ~pid:0 ~processor:1 ~priority:1 () ]))

let test_config_shapes () =
  let c = Util.uni_config ~quantum:5 [ 1; 1; 2 ] in
  Util.checki "N" 3 (Config.n c);
  Util.checki "M" 3 (Config.max_per_processor c);
  Util.checkb "not pure priority" (not (Config.is_pure_priority c));
  Util.checkb "not pure quantum" (not (Config.is_pure_quantum c));
  let cq = Util.uni_config ~quantum:5 [ 1; 1; 1 ] in
  Util.checkb "pure quantum" (Config.is_pure_quantum cq);
  let cp = Util.uni_config ~quantum:5 [ 1; 2; 3 ] in
  Util.checkb "pure priority" (Config.is_pure_priority cp)

(* Axiom 1: once a higher-priority process has started an invocation, the
   lower-priority one cannot run until it finishes. *)
let test_priority_runs_to_completion () =
  let config = Util.uni_config ~quantum:2 [ 1; 2 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 6; logger_body log 1 6 |] in
  (* Try hard to interleave: the engine must refuse. *)
  let r = Util.run ~config ~policy:(Hwf_adversary.Stagger.max_interleave ()) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let order = List.rev_map fst !log in
  (* p1 (pri 2) statements must form a contiguous block. *)
  let rec contiguous seen_hi ended_hi = function
    | [] -> true
    | 1 :: rest -> if ended_hi then false else contiguous true ended_hi rest
    | 0 :: rest -> contiguous seen_hi (seen_hi || ended_hi) rest
    | _ -> assert false
  in
  Util.checkb "high-priority block is contiguous" (contiguous false false order)

(* Axiom 2: after being preempted, a process gets Q uninterrupted
   statements upon resumption (engine-enforced). *)
let test_quantum_guarantee () =
  (* The densest legal schedule under Axiom 2 switches far less often
     than with the axiom disabled: after its free first preemption each
     process runs in blocks of Q (or to its invocation end). *)
  let alternations axiom2 =
    let config = Util.uni_config ~axiom2 ~quantum:4 [ 1; 1 ] in
    let log = ref [] in
    let bodies = [| logger_body log 0 10; logger_body log 1 10 |] in
    let r = Util.run ~config ~policy:(Hwf_adversary.Stagger.max_interleave ()) bodies in
    Util.checkb "finished" (Array.for_all Fun.id r.finished);
    let rec count prev = function
      | [] -> 0
      | p :: rest -> (if p <> prev then 1 else 0) + count p rest
    in
    count (-1) (List.rev_map fst !log)
  in
  let with_axiom = alternations true in
  let without_axiom = alternations false in
  (* 20 statements, Q=4: at most 2 free first preemptions plus one switch
     per quantum block; without the axiom the policy alternates freely. *)
  Util.checkb
    (Printf.sprintf "with axiom few switches (%d)" with_axiom)
    (with_axiom <= 8);
  Util.checkb
    (Printf.sprintf "without axiom many switches (%d > %d)" without_axiom with_axiom)
    (without_axiom > with_axiom)

let test_axiom2_off_allows_pingpong () =
  let config = Util.uni_config ~axiom2:false ~quantum:4 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 5; logger_body log 1 5 |] in
  let r = Util.run ~config ~policy:(Hwf_adversary.Stagger.max_interleave ()) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let order = List.rev_map fst !log in
  (* With no quantum guarantee, max-interleave achieves strict alternation. *)
  let alternations =
    let rec count prev = function
      | [] -> 0
      | p :: rest -> (if p <> prev then 1 else 0) + count p rest
    in
    match order with [] -> 0 | p :: rest -> count p rest
  in
  Util.checkb "many alternations" (alternations >= 8)

let test_first_preemption_free () =
  (* A fresh process can be preempted immediately after any statement. *)
  let config = Util.uni_config ~quantum:100 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 3; logger_body log 1 3 |] in
  (* Script: p0 one statement, then p1 to completion, then p0. *)
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 1; 1; 0; 0 ] in
  let r = Util.run ~config ~policy bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "interleaving allowed" [ 0; 1; 1; 1; 0; 0 ] order

let test_shared_semantics () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let x = Shared.make "x" 0 in
  let seen = ref (-1) in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "rw" (fun () ->
            Shared.write x 41;
            seen := Shared.read x + 1));
    |]
  in
  let r = Util.run ~config ~policy:Policy.first bodies in
  Util.checki "written" 41 (Shared.peek x);
  Util.checki "read" 42 !seen;
  Util.checki "two statements" 2 (Trace.statements r.trace)

let test_trace_contents () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let x = Shared.make "x" 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Eff.note "midpoint";
            Shared.write x 1));
    |]
  in
  let r = Util.run ~config ~policy:Policy.first bodies in
  match Trace.events r.trace with
  | [ Trace.Inv_begin { label = "op"; _ }; Trace.Stmt { op = Op.Read "x"; _ };
      Trace.Note { text = "midpoint"; _ }; Trace.Stmt { op = Op.Write "x"; _ };
      Trace.Inv_end { label = "op"; _ } ] ->
    ()
  | evs -> Alcotest.failf "unexpected events:@.%a" Fmt.(list ~sep:(any "@.") Trace.pp_event) evs

(* S1 regression: own_statements is maintained incrementally; it must
   agree with a fold over the event vector, and the observer hook must
   see every event in append order. *)
let test_own_statements_incremental () =
  let config = Util.uni_config ~quantum:2 [ 1; 1; 2 ] in
  let n = Config.n config in
  let seen = ref 0 in
  let log = ref [] in
  let bodies = Array.init n (fun pid -> logger_body log pid (3 + pid)) in
  let r =
    Engine.run ~config
      ~policy:(Hwf_adversary.Stagger.max_interleave ())
      ~observer:(fun _ -> incr seen)
      bodies
  in
  Util.checki "observer saw every event" (Trace.length r.trace) !seen;
  let folded = Array.make n 0 in
  List.iter
    (function
      | Trace.Stmt { pid; _ } -> folded.(pid) <- folded.(pid) + 1
      | _ -> ())
    (Trace.events r.trace);
  for pid = 0 to n - 1 do
    Util.checki
      (Printf.sprintf "own_statements p%d agrees with fold" (pid + 1))
      folded.(pid)
      (Trace.own_statements r.trace pid)
  done;
  Alcotest.check_raises "pid out of range" (Invalid_argument "Trace.own_statements")
    (fun () -> ignore (Trace.own_statements r.trace n))

let test_now_monotone () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let ts = ref [] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ts := Eff.now () :: !ts;
            Eff.local "a";
            ts := Eff.now () :: !ts;
            Eff.local "b";
            ts := Eff.now () :: !ts));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  match List.rev !ts with
  | [ a; b; c ] -> Util.checkb "strictly increasing" (a < b && b < c)
  | _ -> Alcotest.fail "expected three timestamps"

let test_step_limit () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "spin" (fun () ->
            while true do
              Eff.local "s"
            done));
    |]
  in
  let r = Engine.run ~step_limit:50 ~config ~policy:Policy.first bodies in
  Util.checkb "stopped by limit" (r.stop = Engine.Step_limit);
  Util.checki "statements" 50 (Trace.statements r.trace)

let test_policy_stop () =
  let config = Util.uni_config ~quantum:10 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 5; logger_body log 1 5 |] in
  let policy = Policy.scripted [ 0; 0 ] in
  let r = Engine.run ~config ~policy bodies in
  Util.checkb "policy stop" (r.stop = Engine.Policy_stopped);
  Util.checki "only two statements" 2 (Trace.statements r.trace)

let test_nested_invocation_rejected () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "outer" (fun () ->
            Eff.local "s";
            Eff.invocation "inner" (fun () -> Eff.local "t")));
    |]
  in
  match Engine.run ~config ~policy:Policy.first bodies with
  | exception Invalid_argument msg -> Util.checkb "names it" (Util.contains msg "nested")
  | _ -> Alcotest.fail "nested invocation accepted"

let test_exceptions_propagate () =
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "boom" (fun () ->
            Eff.local "s";
            failwith "kaboom"));
    |]
  in
  Alcotest.check_raises "propagates" (Failure "kaboom") (fun () ->
      ignore (Engine.run ~config ~policy:Policy.first bodies))

(* Regression: a run that ends with processes still suspended (policy
   stop, step limit, All_halted, a sibling's exception) must unwind them
   — a dropped continuation's fiber stack is never reclaimed. Every
   finalizer must run, in process context, and a statement attempted
   while unwinding must not reach the trace. *)
let test_abandoned_processes_released () =
  let released = ref 0 and in_process = ref true in
  let body ~fail () =
    Fun.protect
      ~finally:(fun () ->
        in_process := !in_process && Runtime.in_process ();
        (try Eff.local "cleanup" with _ -> ());
        incr released)
      (fun () ->
        Eff.invocation "spin" (fun () ->
            Eff.local "s";
            if fail then failwith "kaboom";
            while true do
              Eff.local "s"
            done))
  in
  let case name ?step_limit ?halted ?(fail = false) ~policy pris stop =
    released := 0;
    in_process := true;
    let config = Util.uni_config ~quantum:4 pris in
    let bodies = Array.of_list (List.mapi (fun i _ -> body ~fail:(fail && i = 0)) pris) in
    (match Engine.run ?step_limit ?halted ~config ~policy bodies with
    | r ->
      Util.checkb (name ^ ": stop reason") (Some r.stop = stop);
      Option.iter
        (Util.checki (name ^ ": statements") (Trace.statements r.trace))
        step_limit
    | exception Failure _ -> Util.checkb (name ^ ": body exception") (stop = None));
    Util.checki (name ^ ": every body released") (List.length pris) !released;
    Util.checkb (name ^ ": finalizers in process context") !in_process;
    Util.checkb (name ^ ": harness context after") (not (Runtime.in_process ()))
  in
  case "policy stop" ~policy:(Policy.scripted [ 0; 1; 2; 0 ]) [ 1; 1; 1 ]
    (Some Engine.Policy_stopped);
  case "step limit (bursts)" ~step_limit:50 ~policy:(Policy.round_robin ()) [ 1; 1; 1 ]
    (Some Engine.Step_limit);
  case "step limit (solo)" ~step_limit:50 ~policy:Policy.first [ 1 ]
    (Some Engine.Step_limit);
  case "all halted"
    ~halted:(fun (pv : Policy.pview) -> pv.own_steps >= 2)
    ~policy:(Policy.round_robin ()) [ 1; 1 ] (Some Engine.All_halted);
  case "sibling exception" ~fail:true ~policy:(Policy.round_robin ()) [ 1; 1; 1 ] None

let test_empty_invocation () =
  (* An invocation with zero statements is recorded and doesn't wedge the
     scheduler. *)
  let config = Util.uni_config ~quantum:10 [ 1; 1 ] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "empty" (fun () -> ());
        Eff.invocation "real" (fun () -> Eff.local "s"));
      (fun () -> Eff.invocation "w" (fun () -> Eff.local "s"));
    |]
  in
  let r = Util.run ~config ~policy:(Policy.round_robin ()) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let begins =
    List.filter (function Trace.Inv_begin _ -> true | _ -> false) (Trace.events r.trace)
  in
  Util.checki "three invocations recorded" 3 (List.length begins)

let test_finished_releases_guarantee () =
  (* Regression: a body that returns after executing statements (no
     Inv_end — legal for "bare" bodies that never call Eff.invocation)
     used to leave its cell Finished with an active quantum guarantee,
     permanently guarding every same-priority peer on its processor and
     crashing the scheduling loop on the empty-runnable assert. *)
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let bare k () =
    for _ = 1 to k do
      Eff.local "s"
    done
  in
  (* p0 one statement; p1 one statement (p0 preempted); p0 resumes under
     a fresh 8-statement guarantee and finishes mid-guarantee; p1 must
     then be allowed to continue. *)
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 0 ] in
  let r = Engine.run ~config ~policy [| bare 2; bare 2 |] in
  Util.checkb "both finished" (Array.for_all Fun.id r.Engine.finished);
  Util.checkb "stops normally" (r.Engine.stop = Engine.All_finished)

let test_empty_invocation_loop_bounded () =
  (* Regression: a statement-free invocation records Inv_begin/Inv_end
     without advancing Trace.statements, so a program looping on empty
     invocations grew the trace and spun the scheduler forever —
     step_limit never fired. Scheduler decisions are bounded too now,
     and the decision bound reports itself as Decision_limit, distinct
     from a genuine statement-budget stop (test_step_limit above). *)
  let config = Util.uni_config ~quantum:4 [ 1 ] in
  let body () =
    while true do
      Eff.invocation "e" (fun () -> ())
    done
  in
  let r = Engine.run ~step_limit:25 ~config ~policy:Policy.first [| body |] in
  Util.checkb "stops with Decision_limit" (r.Engine.stop = Engine.Decision_limit);
  Util.checki "no statements" 0 (Trace.statements r.Engine.trace);
  Util.checkb "trace stayed bounded" (Trace.length r.Engine.trace <= 8 * 25)

let test_wellformed_detects_priority_violation () =
  (* Hand-build a trace where a low-priority process runs while a
     higher-priority one is mid-invocation. *)
  let config = Util.uni_config ~quantum:4 [ 1; 2 ] in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "hi" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 1; op = Op.local "a"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "lo" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 0; op = Op.local "b"; inv = 0; cost = 1 });
  match Wellformed.check t with
  | [ { axiom = `Priority; pid = 0; blame = 1; _ } ] -> ()
  | vs -> Alcotest.failf "expected one priority violation, got %d" (List.length vs)

let test_wellformed_detects_quantum_violation () =
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let t = Trace.create config in
  let stmt idx pid = Trace.add t (Trace.Stmt { idx; pid; op = Op.local "s"; inv = 0; cost = 1 }) in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  stmt 0 0;
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  stmt 1 1 (* first preemption of p0: fine *);
  stmt 2 0 (* p0 resumes: guarantee of 4 begins *);
  stmt 3 1 (* violates p0's guarantee *);
  (match Wellformed.check t with
  | [ { axiom = `Quantum; pid = 1; blame = 0; at = 3 } ] -> ()
  | vs ->
    Alcotest.failf "expected one quantum violation, got %a"
      Fmt.(Dump.list Wellformed.pp_violation)
      vs);
  (* Same trace with axiom2 disabled is accepted. *)
  let config' = Util.uni_config ~axiom2:false ~quantum:4 [ 1; 1 ] in
  let t' = Trace.create config' in
  Trace.add t' (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  Trace.add t' (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t' (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  Trace.add t' (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t' (Trace.Stmt { idx = 2; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t' (Trace.Stmt { idx = 3; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Util.checkb "accepted without axiom 2" (Wellformed.is_well_formed t')

let test_render_shapes () =
  let config = Util.uni_config ~quantum:3 [ 1; 2 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 3; logger_body log 1 2 |] in
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 1; 0; 0 ] in
  let r = Util.run ~config ~policy bodies in
  let s = Render.lanes r.trace in
  Util.checkb "has p1 lane" (Util.contains s "p1");
  Util.checkb "has brackets" (String.contains s '[' && String.contains s ']');
  Util.checkb "has quantum ruler" (Util.contains s "Q=3")

let test_multiprocessor_independence () =
  (* Processes on different processors interleave freely regardless of
     priority. *)
  let procs =
    [
      Proc.make ~pid:0 ~processor:0 ~priority:1 ();
      Proc.make ~pid:1 ~processor:1 ~priority:2 ();
    ]
  in
  let config = Config.make ~quantum:100 ~processors:2 ~levels:2 procs in
  let log = ref [] in
  let bodies = [| logger_body log 0 3; logger_body log 1 3 |] in
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1; 0; 1 ] in
  let r = Util.run ~config ~policy bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "free interleaving" [ 0; 1; 0; 1; 0; 1 ] order

let test_halted_hook () =
  (* The halted hook withholds a process from the policy but keeps it in
     the machine; when only halted processes remain, the run stops with
     All_halted and result.halted marks them. *)
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 3; logger_body log 1 3 |] in
  let halted (pv : Policy.pview) = pv.pid = 1 && pv.own_steps >= 2 in
  let r = Engine.run ~halted ~config ~policy:(Policy.round_robin ()) bodies in
  Util.checkb "p1 finished" r.finished.(0);
  Util.checkb "p2 unfinished" (not r.finished.(1));
  Util.checkb "p2 halted" r.halted.(1);
  Util.checkb "p1 not halted" (not r.halted.(0));
  Util.checkb "stops with All_halted" (r.stop = Engine.All_halted);
  Util.checki "p2 executed exactly 2 own statements" 2 r.own_steps.(1);
  Util.checkb "well-formed" (Wellformed.is_well_formed r.trace)

let test_halted_none_marked_without_hook () =
  let config = Util.uni_config ~quantum:8 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 2; logger_body log 1 2 |] in
  let r = Engine.run ~config ~policy:(Policy.round_robin ()) bodies in
  Util.checkb "no halted marks" (not (Array.exists Fun.id r.halted))

let test_axiom2_gate_hook () =
  (* With the gate off, same-priority processes may interleave inside
     what would be a protected quantum window; the gate flips are in the
     trace and Wellformed accepts the weakened run. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 4; logger_body log 1 4 |] in
  (* Ping-pong: illegal under an enforced Axiom 2 for Q=4 (after p1 is
     preempted once it must get 4 protected statements on resume). *)
  let policy = Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1; 0; 1; 0; 1 ] in
  let r = Engine.run ~axiom2_active:(fun ~step:_ -> false) ~config ~policy bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let order = List.rev_map fst !log in
  Alcotest.(check (list int)) "ping-pong happened" [ 0; 1; 0; 1; 0; 1; 0; 1 ] order;
  Util.checkb "gate event recorded"
    (List.exists
       (function Trace.Axiom2_gate { active = false; _ } -> true | _ -> false)
       (Trace.events r.trace));
  Util.checkb "weakened trace judged well-formed" (Wellformed.is_well_formed r.trace);
  (* Sanity: the same script under an enforced gate cannot ping-pong —
     the scripted entries are illegal and the fallback serializes. *)
  let log2 = ref [] in
  let bodies2 = [| logger_body log2 0 4; logger_body log2 1 4 |] in
  let r2 = Engine.run ~config ~policy:(Policy.scripted ~fallback:Policy.first [ 0; 1; 0; 1; 0; 1; 0; 1 ]) bodies2 in
  Util.checkb "enforced run well-formed" (Wellformed.is_well_formed r2.trace);
  Util.checkb "no ping-pong under enforcement"
    (List.rev_map fst !log2 <> [ 0; 1; 0; 1; 0; 1; 0; 1 ])

let test_axiom2_gate_windows () =
  (* A gate that is off only in a window: flips are recorded in pairs
     and the run stays judgeable. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let log = ref [] in
  let bodies = [| logger_body log 0 6; logger_body log 1 6 |] in
  let gate ~step = step < 2 || step >= 8 in
  let r =
    Engine.run ~axiom2_active:gate ~config ~policy:(Policy.random ~seed:3) bodies
  in
  let flips =
    List.filter_map
      (function Trace.Axiom2_gate { active; _ } -> Some active | _ -> None)
      (Trace.events r.trace)
  in
  Util.checkb "gate off then on" (flips = [ false; true ]);
  Util.checkb "well-formed" (Wellformed.is_well_formed r.trace)

(* Property: every engine run under a random policy and a random layout
   yields a well-formed trace. *)
let prop_engine_always_well_formed =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_range 1 3) (int_range 1 3) (int_range 0 12))
  in
  Util.qtest ~count:60 "engine traces are well-formed" gen
    (fun (seed, processors, levels, quantum) ->
      let layout =
        Hwf_workload.Layout.random ~seed ~processors ~levels ~n:(3 + (seed mod 3))
      in
      let config = Hwf_workload.Layout.to_config ~quantum layout in
      let n = Hwf_sim.Config.n config in
      let x = Shared.make "x" 0 in
      let bodies =
        Array.init n (fun _pid () ->
            for _ = 1 to 2 do
              Eff.invocation "op" (fun () ->
                  let v = Shared.read x in
                  Eff.local "l";
                  Shared.write x (v + 1))
            done)
      in
      let r = Engine.run ~config ~policy:(Policy.random ~seed:(seed + 1)) bodies in
      Array.for_all Fun.id r.finished && Wellformed.is_well_formed r.trace)

(* Property: the incremental scheduler agrees with the retained naive
   reference. [self_check] recomputes every scheduling quantity by full
   scan each decision and asserts agreement in-run; on top, a checked
   run must be observationally identical to a plain one — same trace
   bytes, stop reason and per-pid result vectors. Exercises random
   multiprocessor layouts, dynamic priorities, empty invocations, the
   Axiom-2 gate and halting faults. *)
let prop_incremental_matches_naive =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 10_000) (int_range 1 3) (int_range 1 3) (int_range 0 12))
  in
  Util.qtest ~count:40 "incremental scheduler = naive reference" gen
    (fun (seed, processors, levels, quantum) ->
      let layout =
        Hwf_workload.Layout.random ~seed ~processors ~levels ~n:(3 + (seed mod 4))
      in
      let config = Hwf_workload.Layout.to_config ~quantum layout in
      let n = Config.n config in
      let axiom2_active =
        if seed mod 2 = 0 then None else Some (fun ~step -> step / 5 mod 2 = 0)
      in
      let halted =
        if seed mod 3 = 0 then
          Some (fun (pv : Policy.pview) -> pv.pid = 0 && pv.own_steps >= 4)
        else None
      in
      let run ~self_check =
        let x = Shared.make "x" 0 in
        let bodies =
          Array.init n (fun pid () ->
              for _ = 1 to 2 do
                Eff.invocation "op" (fun () ->
                    let v = Shared.read x in
                    Eff.local "l";
                    Shared.write x (v + pid + 1))
              done;
              if config.Config.levels > 1 then
                Eff.set_priority (1 + ((pid + seed) mod config.Config.levels));
              Eff.invocation "empty" (fun () -> ()))
        in
        Engine.run ?halted ?axiom2_active ~self_check ~step_limit:2_000 ~config
          ~policy:(Policy.random ~seed:(seed + 1)) bodies
      in
      let a = run ~self_check:false in
      let b = run ~self_check:true in
      Hwf_obs.Jsonl.trace_to_string a.trace = Hwf_obs.Jsonl.trace_to_string b.trace
      && a.stop = b.stop && a.finished = b.finished && a.halted = b.halted
      && a.own_steps = b.own_steps
      && Wellformed.is_well_formed a.trace)

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "shapes" `Quick test_config_shapes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "priority runs to completion" `Quick
            test_priority_runs_to_completion;
          Alcotest.test_case "quantum guarantee" `Quick test_quantum_guarantee;
          Alcotest.test_case "axiom2 off allows ping-pong" `Quick
            test_axiom2_off_allows_pingpong;
          Alcotest.test_case "first preemption free" `Quick test_first_preemption_free;
          Alcotest.test_case "shared semantics" `Quick test_shared_semantics;
          Alcotest.test_case "trace contents" `Quick test_trace_contents;
          Alcotest.test_case "own statements incremental" `Quick
            test_own_statements_incremental;
          Alcotest.test_case "now monotone" `Quick test_now_monotone;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "policy stop" `Quick test_policy_stop;
          Alcotest.test_case "multiprocessor independence" `Quick
            test_multiprocessor_independence;
          Alcotest.test_case "nested invocation rejected" `Quick
            test_nested_invocation_rejected;
          Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
          Alcotest.test_case "abandoned processes released" `Quick
            test_abandoned_processes_released;
          Alcotest.test_case "empty invocation" `Quick test_empty_invocation;
          Alcotest.test_case "finished process releases guarantee" `Quick
            test_finished_releases_guarantee;
          Alcotest.test_case "empty-invocation loop bounded" `Quick
            test_empty_invocation_loop_bounded;
          Alcotest.test_case "halted hook" `Quick test_halted_hook;
          Alcotest.test_case "no hook, no halted marks" `Quick
            test_halted_none_marked_without_hook;
          Alcotest.test_case "axiom2 gate off" `Quick test_axiom2_gate_hook;
          Alcotest.test_case "axiom2 gate windows" `Quick test_axiom2_gate_windows;
        ] );
      ( "wellformed",
        [
          Alcotest.test_case "detects priority violation" `Quick
            test_wellformed_detects_priority_violation;
          Alcotest.test_case "detects quantum violation" `Quick
            test_wellformed_detects_quantum_violation;
        ] );
      ("render", [ Alcotest.test_case "lane shapes" `Quick test_render_shapes ]);
      ("props",
       [ prop_engine_always_well_formed; prop_incremental_matches_naive ]);
    ]
