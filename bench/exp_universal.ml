(* E10 — universality in practice: wait-free linearizable objects for
   N >> P processes from P-consensus base objects, via Herlihy's
   construction over Fig. 7 consensus. *)

open Hwf_adversary
open Hwf_workload

let run ~quick =
  Tbl.section "E10: universal construction over Fig. 7 consensus";
  let runs = if quick then 10 else 60 in
  let rows =
    List.map
      (fun (p, n_extra, ops_per) ->
        let layout =
          Layout.uniform ~processors:p ~per_processor:((n_extra + (2 * p) - 1) / p + 1)
        in
        let n = List.length layout in
        let s =
          Scenarios.universal_queue ~name:"uq" ~quantum:6000 ~consensus_number:p
            ~layout ~ops_per
        in
        let o = Explore.sample ~strategy:Randsched.Naive
            ~runs ~step_limit:40_000_000 ~seed:(p * 7) s in
        [
          string_of_int p;
          string_of_int p;
          string_of_int n;
          string_of_int (n * ops_per * 2);
          string_of_int o.runs;
          (match o.counterexample with
          | None -> "linearizable FIFO"
          | Some c -> c.message);
        ])
      [ (2, 4, 1); (2, 6, 1); (3, 6, 1) ]
  in
  Tbl.print
    ~title:"wait-free FIFO queue for N processes on P processors from C=P objects"
    ~header:[ "P"; "C"; "N"; "ops"; "runs"; "verdict" ]
    rows;
  (* counters over Fig. 3 cells on a hybrid uniprocessor *)
  let s = Scenarios.universal_counter_uni ~name:"uc" ~quantum:3000 ~pris:[ 1; 1; 2; 3 ] in
  let o = Explore.sample ~strategy:Randsched.Naive
      ~runs:(runs * 2) ~step_limit:5_000_000 ~seed:99 s in
  Tbl.note
    "uniprocessor counter over Fig. 3 consensus (4 procs, 3 levels): %s after %d runs."
    (match o.counterexample with None -> "all increments distinct 1..N" | Some c -> c.message)
    o.runs
