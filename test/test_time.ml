open Hwf_sim
open Hwf_adversary
open Hwf_workload

(* The time model (Table 1's Tmax/Tmin structure): statement costs are
   adversary-chosen within [tmin..tmax] and the quantum protects Q time
   units. *)

let slow_cost ~step:_ _pid _op = max_int (* clamped to tmax *)

let test_default_cost_is_one () =
  let config = Util.uni_config ~quantum:8 [ 1 ] in
  let bodies = [| (fun () -> Eff.invocation "w" (fun () -> Eff.local "a"; Eff.local "b")) |] in
  let r = Util.run ~config ~policy:Policy.first bodies in
  Util.checki "time = statements" (Trace.statements r.trace) (Trace.time r.trace)

let test_cost_clamped () =
  let config =
    Config.uniprocessor ~tmin:2 ~tmax:5 ~quantum:20 ~levels:1 (Util.uni_procs [ 1 ])
  in
  let bodies = [| (fun () -> Eff.invocation "w" (fun () -> Eff.local "a"; Eff.local "b")) |] in
  let r = Engine.run ~cost:slow_cost ~config ~policy:Policy.first bodies in
  Util.checki "clamped to tmax" 10 (Trace.time r.trace);
  let r' = Engine.run ~cost:(fun ~step:_ _ _ -> 0) ~config ~policy:Policy.first bodies in
  Util.checki "clamped to tmin" 4 (Trace.time r'.trace)

let test_config_validates_bounds () =
  Alcotest.check_raises "tmin >= 1" (Invalid_argument "Config.make: need 1 <= tmin <= tmax")
    (fun () ->
      ignore
        (Config.uniprocessor ~tmin:0 ~tmax:1 ~quantum:1 ~levels:1 (Util.uni_procs [ 1 ])));
  Alcotest.check_raises "tmax >= tmin"
    (Invalid_argument "Config.make: need 1 <= tmin <= tmax") (fun () ->
      ignore
        (Config.uniprocessor ~tmin:3 ~tmax:2 ~quantum:1 ~levels:1 (Util.uni_procs [ 1 ])))

(* Fig. 3 under slow statements: a time quantum of 8 protects only
   ceil(8/tmax) statements, so with tmax = 4 the algorithm must break;
   scaling the quantum by tmax restores exhaustive safety. This is the
   c*Tmax dependence of Table 1's middle column. *)
let fig3_scenario ~tmin ~tmax ~quantum =
  let layout = [ (0, 1); (0, 1) ] in
  let b = Scenarios.consensus ~name:"f3t" ~impl:Scenarios.Fig3 ~quantum ~layout in
  let config = Layout.to_config ~quantum layout in
  let config =
    Config.uniprocessor ~tmin ~tmax ~quantum ~levels:config.Config.levels
      (Array.to_list config.Config.procs)
  in
  Explore.{ b.scenario with config }

(* Explore with an adversarial cost: replays need determinism, so cost
   depends only on the statement (always tmax). *)
let explore_slow scenario =
  let runs = ref 0 in
  let exhaustive = ref true in
  let failure = ref None in
  let rec loop prefix =
    if !runs >= 300_000 then exhaustive := false
    else begin
      incr runs;
      let instance = scenario.Explore.make () in
      (* scripted replay of the prefix, then first-runnable *)
      let depth = ref 0 in
      let slots = ref [] in
      let choose (v : Policy.view) =
        let d = !depth in
        incr depth;
        let idx = if d < Array.length prefix then prefix.(d) else 0 in
        let idx = if idx < List.length v.runnable then idx else 0 in
        slots := (idx, List.length v.runnable) :: !slots;
        Some (List.nth v.runnable idx)
      in
      let r =
        Engine.run ~step_limit:50_000 ~cost:slow_cost ~config:scenario.Explore.config
          ~policy:(Policy.of_fun "slowx" choose) instance.Explore.programs
      in
      (match Wellformed.check r.trace with
      | v :: _ -> Alcotest.failf "ill-formed: %a" Wellformed.pp_violation v
      | [] -> ());
      match instance.Explore.check r with
      | Error m -> failure := Some m
      | Ok () -> (
        (* backtrack *)
        let slots = Array.of_list (List.rev !slots) in
        let rec bt i =
          if i < 0 then None
          else
            let idx, n = slots.(i) in
            if idx + 1 < n then Some i else bt (i - 1)
        in
        match bt (Array.length slots - 1) with
        | None -> ()
        | Some i ->
          let prefix' = Array.init (i + 1) (fun j -> fst slots.(j)) in
          prefix'.(i) <- fst slots.(i) + 1;
          loop prefix')
    end
  in
  loop [||];
  (!runs, !failure)

let test_tmax_breaks_fig3 () =
  let s = fig3_scenario ~tmin:1 ~tmax:4 ~quantum:8 in
  let _, failure = explore_slow s in
  match failure with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a violation with slow statements at Q=8"

let test_scaled_quantum_restores_safety () =
  let s = fig3_scenario ~tmin:1 ~tmax:4 ~quantum:(8 * 4) in
  let runs, failure = explore_slow s in
  (match failure with
  | None -> ()
  | Some m -> Alcotest.failf "violated at Q=8*Tmax: %s" m);
  Util.checkb "searched some schedules" (runs > 10)

let test_wellformed_accepts_time_guarantees () =
  (* Build a trace where p0 is preempted once and then runs statements
     worth exactly Q time: legal. One more foreign statement inside the
     protected window: illegal. *)
  let config =
    Config.uniprocessor ~tmin:1 ~tmax:4 ~quantum:8 ~levels:1 (Util.uni_procs [ 1; 1 ])
  in
  let stmt t idx pid cost = Trace.add t (Trace.Stmt { idx; pid; op = Op.local "s"; inv = 0; cost }) in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  stmt t 0 0 1;
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  stmt t 1 1 1 (* first preemption of p0 *);
  stmt t 2 0 4;
  stmt t 3 0 4 (* 8 time units consumed: guarantee exhausted *);
  stmt t 4 1 1 (* now legal *);
  Util.checkb "time-exact guarantee accepted" (Wellformed.is_well_formed t);
  let t' = Trace.create config in
  Trace.add t' (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  stmt t' 0 0 1;
  Trace.add t' (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  stmt t' 1 1 1;
  stmt t' 2 0 4 (* only 4 of 8 time units *);
  stmt t' 3 1 1 (* violates the remaining guarantee *);
  Util.checkb "early same-level statement rejected" (not (Wellformed.is_well_formed t'))

(* Property: under random cost functions the engine's traces remain
   well-formed (the time-based guarantee accounting of engine and
   checker agree). *)
let prop_random_costs_well_formed =
  Util.qtest ~count:60 "random costs keep traces well-formed"
    QCheck2.Gen.(tup3 (int_range 0 10_000) (int_range 1 5) (int_range 0 20))
    (fun (seed, tmax, quantum) ->
      let config =
        Config.uniprocessor ~tmin:1 ~tmax ~quantum ~levels:2
          (Util.uni_procs [ 1; 1; 2 ])
      in
      let x = Shared.make "x" 0 in
      let bodies =
        Array.init 3 (fun _ () ->
            for _ = 1 to 2 do
              Eff.invocation "op" (fun () ->
                  let v = Shared.read x in
                  Eff.local "l";
                  Shared.write x (v + 1))
            done)
      in
      let st = Random.State.make [| seed; 0x7e |] in
      let cost ~step:_ _ _ = 1 + Random.State.int st (max 1 tmax) in
      let r =
        Engine.run ~cost ~config ~policy:(Policy.random ~seed:(seed + 1)) bodies
      in
      Array.for_all Fun.id r.finished
      && Wellformed.is_well_formed r.trace
      && Trace.time r.trace >= Trace.statements r.trace)

let () =
  Alcotest.run "time"
    [
      ( "model",
        [
          Alcotest.test_case "default cost" `Quick test_default_cost_is_one;
          Alcotest.test_case "clamping" `Quick test_cost_clamped;
          Alcotest.test_case "config validation" `Quick test_config_validates_bounds;
          Alcotest.test_case "wellformed time guarantees" `Quick
            test_wellformed_accepts_time_guarantees;
        ] );
      ( "table1-scaling",
        [
          Alcotest.test_case "tmax breaks Fig 3 at Q=8" `Quick test_tmax_breaks_fig3;
          Alcotest.test_case "Q scaled by tmax is safe" `Quick
            test_scaled_quantum_restores_safety;
        ] );
      ("props", [ prop_random_costs_well_formed ]);
    ]
