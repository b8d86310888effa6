(* E5 — Theorem 4 (Figs. 7/8): wait-free multiprocessor consensus for any
   number of processes from C-consensus objects. Reports the Fig. 8
   port/level layout, agreement verdicts across (P, K, M), and the O(L)
   per-process work. *)

open Hwf_core
open Hwf_adversary
open Hwf_workload

let port_layout_rows ~p =
  List.concat_map
    (fun k ->
      let c = p + k in
      let ports =
        List.init p (fun i -> Bounds.ports_per_processor ~p ~k ~processor:i)
      in
      [
        [
          string_of_int c;
          string_of_int k;
          String.concat " " (List.map string_of_int ports);
          string_of_int (List.fold_left ( + ) 0 ports);
        ];
      ])
    (List.init (p + 1) Fun.id)

let verdict ~quantum ~consensus_number ~layout ~runs ~seed =
  let b =
    Scenarios.consensus ~name:"mc" ~impl:(Scenarios.Fig7 { consensus_number }) ~quantum
      ~layout
  in
  let o = Explore.sample ~strategy:Randsched.Naive ~runs ~step_limit:8_000_000 ~seed b.scenario in
  match o.counterexample with None -> "agreement holds" | Some c -> c.message

let run ~quick =
  Tbl.section "E5: Theorem 4 — Fig. 7 multiprocessor consensus";
  (* Fig. 8 layout *)
  Tbl.print ~title:"Fig. 8 port layout, P = 3"
    ~header:[ "C"; "K"; "ports per processor"; "total ports (= C)" ]
    (port_layout_rows ~p:3);
  (* verdicts across the (P, C, M) grid *)
  let runs = if quick then 20 else 120 in
  let grid =
    [
      (2, 2, 1); (2, 2, 2); (2, 3, 2); (2, 4, 2); (2, 4, 3);
      (3, 3, 1); (3, 4, 2); (3, 6, 2);
    ]
  in
  let rows =
    List.map
      (fun (p, c, m) ->
        let layout = Layout.uniform ~processors:p ~per_processor:m in
        let l = Bounds.levels ~m ~p ~k:(Bounds.fig7_k ~p ~consensus_number:c) in
        let v =
          verdict ~quantum:(if p >= 3 then 8000 else 4000) ~consensus_number:c ~layout
            ~runs ~seed:(p * 100 + c)
        in
        [
          string_of_int p; string_of_int c; string_of_int m;
          string_of_int (p * m); string_of_int l; v;
        ])
      grid
  in
  Tbl.print ~title:"agreement/validity/wait-freedom under random schedules"
    ~header:[ "P"; "C"; "M"; "N"; "L"; "verdict" ]
    rows;
  (* O(L) work *)
  let work_rows =
    List.map
      (fun (p, c, m) ->
        let layout = Layout.uniform ~processors:p ~per_processor:m in
        let s =
          Scenarios.run_multi ~step_limit:20_000_000 ~quantum:1_000_000
            ~consensus_number:c ~layout
            ~policy:(Hwf_sim.Policy.round_robin ())
            ()
        in
        [
          string_of_int p; string_of_int c; string_of_int m;
          string_of_int s.levels;
          string_of_int s.max_own_steps;
          string_of_int (s.max_own_steps / max 1 s.levels);
        ])
      [ (2, 2, 1); (2, 2, 2); (2, 2, 3); (3, 3, 2); (2, 4, 2) ]
  in
  Tbl.print ~title:"per-process work is O(L): statements / L is a stable constant c"
    ~header:[ "P"; "C"; "M"; "L"; "max own statements"; "statements per level (c)" ]
    work_rows
