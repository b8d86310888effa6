(* E9 — polynomial vs exponential complexity (Sec. 1 / Sec. 3.2).
   The paper's Fig. 7 uses polynomially many levels, in contrast with
   the exponential multiprocessor algorithm of Ramamurthy et al. [7].
   The original exponential algorithm is not published in this paper, so
   the baseline is a deliberately exponential-level instantiation of the
   same machinery (DESIGN.md, Substitution 3): same code, M * 2^P levels. *)

open Hwf_sim
open Hwf_core
open Hwf_workload

let measure ?levels_override ~p ~m () =
  let layout = Layout.uniform ~processors:p ~per_processor:m in
  let config = Layout.to_config ~quantum:1_000_000 layout in
  let n = List.length layout in
  let obj =
    Multi_consensus.make ?levels_override ~config ~name:"mc" ~consensus_number:p ()
  in
  let outputs, programs =
    Scenarios.propose_once ~n (fun pid v -> Multi_consensus.decide obj ~pid v)
  in
  let r = Engine.run ~step_limit:60_000_000 ~config ~policy:(Policy.round_robin ()) programs in
  ( Multi_consensus.levels obj,
    Array.fold_left max 0 r.own_steps,
    Scenarios.decision outputs <> None )

let run ~quick =
  Tbl.section "E9: polynomial levels (Fig. 7) vs exponential baseline";
  let m = 2 in
  let ps = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4 ] in
  let rows =
    List.map
      (fun p ->
        let l_poly, steps_poly, ok_poly = measure ~p ~m () in
        let l_expo = Bounds.exponential_baseline_levels ~m ~p in
        let _, steps_expo, ok_expo =
          measure ~levels_override:(max l_expo l_poly) ~p ~m ()
        in
        [
          string_of_int p;
          string_of_int l_poly;
          string_of_int steps_poly;
          (if ok_poly then "yes" else "NO");
          string_of_int (max l_expo l_poly);
          string_of_int steps_expo;
          (if ok_expo then "yes" else "NO");
        ])
      ps
  in
  Tbl.print
    ~title:"per-process statements, polynomial L vs exponential-level baseline (M=2, C=P)"
    ~header:
      [
        "P"; "L (paper)"; "statements (paper)"; "agree";
        "L (exponential)"; "statements (exponential)"; "agree";
      ]
    rows;
  Tbl.note
    "both variants are correct; the exponential-level variant pays\n\
     exponentially more statements as P grows, which is the complexity\n\
     contrast the paper draws against [7]."
