(* E12 — hybrid algorithms are correct in pure-priority and pure-quantum
   systems (Sec. 1 / Sec. 5): re-run the main algorithms unchanged under
   both degenerate scheduler shapes. *)

open Hwf_adversary
open Hwf_workload

let verdict o =
  match o.Explore.counterexample with None -> "correct" | Some c -> c.message

let run ~quick =
  Tbl.section "E12: hybrid algorithms under pure-priority / pure-quantum scheduling";
  let runs = if quick then 30 else 200 in
  let fig3 pris =
    let b =
      Scenarios.consensus ~name:"f3" ~impl:Scenarios.Fig3 ~quantum:8
        ~layout:(List.map (fun p -> (0, p)) pris)
    in
    verdict (Explore.sample ~strategy:Randsched.Naive ~runs ~seed:1 b.scenario)
  in
  let fig5 pris =
    let s =
      Scenarios.hybrid_cas ~name:"f5" ~quantum:600
        ~layout:(List.map (fun p -> (0, p)) pris)
        ~script:(Scenarios.random_script ~seed:5 ~n:(List.length pris) ~ops_per:2)
    in
    verdict (Explore.sample ~strategy:Randsched.Naive ~runs ~step_limit:600_000 ~seed:2 s)
  in
  let fig7 layout =
    let b =
      Scenarios.consensus ~name:"f7"
        ~impl:(Scenarios.Fig7 { consensus_number = 2 })
        ~quantum:4000 ~layout
    in
    verdict (Explore.sample ~strategy:Randsched.Naive
        ~runs:(runs / 3) ~step_limit:8_000_000 ~seed:3 b.scenario)
  in
  let rows =
    [
      [ "Fig 3 consensus"; "pure quantum"; fig3 [ 1; 1; 1 ] ];
      [ "Fig 3 consensus"; "pure priority"; fig3 [ 1; 2; 3 ] ];
      [ "Fig 3 consensus"; "hybrid"; fig3 [ 1; 1; 2 ] ];
      [ "Fig 5 C&S"; "pure quantum"; fig5 [ 1; 1; 1 ] ];
      [ "Fig 5 C&S"; "pure priority"; fig5 [ 1; 2; 3 ] ];
      [ "Fig 5 C&S"; "hybrid"; fig5 [ 1; 1; 2 ] ];
      [
        "Fig 7 consensus"; "pure quantum";
        fig7 (Layout.uniform ~processors:2 ~per_processor:2);
      ];
      [
        "Fig 7 consensus"; "pure priority";
        fig7 (Layout.distinct_priorities ~processors:2 ~per_processor:2);
      ];
      [
        "Fig 7 consensus"; "hybrid";
        fig7 (Layout.banded ~processors:2 ~levels:2 ~per_level:1);
      ];
    ]
  in
  Tbl.print ~title:"one code path, three scheduler shapes"
    ~header:[ "algorithm"; "scheduling"; "verdict" ]
    rows
