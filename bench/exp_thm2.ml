(* E4 — Theorem 2 (Fig. 5): hybrid uniprocessor C&S + Read in O(V) time
   from reads and writes. Reports the measured per-operation statement
   cost as V grows (the O(V) series), linearizability verdicts, and the
   pure-priority / pure-quantum specializations (the Sec. 3.2 claim that
   the algorithm's time matches the earlier specialized ones). *)

open Hwf_sim
open Hwf_core
open Hwf_adversary
open Hwf_workload

(* Statement cost of a low-priority CAS when the list head lives at
   level V (worst-case scan). *)
let scan_cost v =
  let pris = [ 1; v ] in
  let config = Layout.to_config ~quantum:600 (List.map (fun p -> (0, p)) pris) in
  let obj = Hybrid_cas.make ~config ~name:"o" ~init:0 in
  let cost = ref 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "low" (fun () ->
            let t0 = Eff.now () in
            ignore (Hybrid_cas.cas obj ~pid:0 ~expected:1 ~desired:2);
            cost := Eff.now () - t0));
      (fun () ->
        Eff.invocation "high" (fun () ->
            ignore (Hybrid_cas.cas obj ~pid:1 ~expected:0 ~desired:1)));
    |]
  in
  let policy = Policy.highest_pid in
  ignore (Engine.run ~config ~policy bodies);
  !cost

let lin_verdict ~label ~pris ~script ~runs ~seed =
  let s =
    Scenarios.hybrid_cas ~name:"h" ~quantum:600
      ~layout:(List.map (fun p -> (0, p)) pris)
      ~script
  in
  let o = Explore.sample ~strategy:Randsched.Naive ~runs ~step_limit:600_000 ~seed s in
  [
    label;
    string_of_int (List.length pris);
    string_of_int o.runs;
    (match o.counterexample with None -> "linearizable" | Some c -> c.message);
  ]

let run ~quick =
  Tbl.section "E4: Theorem 2 — Fig. 5 hybrid C&S in O(V)";
  (* O(V) series: the worst case needs the head to live at a foreign high
     level, which requires V >= 2. *)
  let vs = [ 2; 3; 4; 5; 6; 7; 8 ] in
  let costs = List.map (fun v -> (v, scan_cost v)) vs in
  Tbl.print ~title:"statements per C&S vs number of priority levels V"
    ~header:[ "V"; "statements (worst-case scan)" ]
    (List.map (fun (v, c) -> [ string_of_int v; string_of_int c ]) costs);
  (match (costs, List.rev costs) with
  | (v_lo, c_lo) :: _, (v_hi, c_hi) :: _ ->
    let slope = (c_hi - c_lo) / max 1 (v_hi - v_lo) in
    Tbl.note "series is linear: %d statements per additional level." slope
  | _ -> ());
  (* Linearizability *)
  let runs = if quick then 40 else 400 in
  let rows =
    [
      lin_verdict ~label:"hybrid (2 levels)" ~pris:[ 1; 1; 2 ]
        ~script:(Scenarios.random_script ~seed:1 ~n:3 ~ops_per:2)
        ~runs ~seed:11;
      lin_verdict ~label:"hybrid (3 levels)" ~pris:[ 1; 2; 3 ]
        ~script:(Scenarios.random_script ~seed:2 ~n:3 ~ops_per:2)
        ~runs ~seed:12;
      lin_verdict ~label:"pure quantum (V=1)" ~pris:[ 1; 1; 1 ]
        ~script:(Scenarios.random_script ~seed:3 ~n:3 ~ops_per:2)
        ~runs ~seed:13;
      lin_verdict ~label:"pure priority" ~pris:[ 1; 2; 3 ]
        ~script:(Scenarios.random_script ~seed:4 ~n:3 ~ops_per:2)
        ~runs ~seed:14;
    ]
  in
  Tbl.print ~title:"linearizability under random schedules"
    ~header:[ "scheduling mode"; "N"; "runs"; "verdict" ]
    rows;
  Tbl.note
    "the same code passes in hybrid, pure-quantum and pure-priority modes\n\
     (Sec. 3.2: its O(V) time matches the specialized algorithms of [7]\n\
     and [1]). Exhaustive (context-bounded) checks run in the test suite."
