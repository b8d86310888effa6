(* E8 — Fig. 9 / Sec. 5: with fair quantum allocation, a constant-size
   quantum suffices (election + priority-based global consensus);
   with an unfair scheduler, election losers can starve — the reason
   Fig. 7 exists. *)

open Hwf_sim
open Hwf_core
open Hwf_workload

let build ~quantum ~layout =
  let n = List.length layout in
  let config = Layout.to_config ~quantum layout in
  let obj = Fair_consensus.make ~config ~name:"fc" ~consensus_number:2 in
  let outputs, programs =
    Scenarios.propose_once ~n (fun pid v -> Fair_consensus.decide obj ~pid v)
  in
  (config, obj, outputs, programs)

let run ~quick:_ =
  Tbl.section "E8: Fig. 9 — fair scheduling, constant quantum";
  let layout = Layout.banded ~processors:2 ~levels:2 ~per_level:2 in
  let rows =
    List.map
      (fun quantum ->
        let config, obj, outputs, programs = build ~quantum ~layout in
        let r =
          Engine.run ~step_limit:10_000_000 ~config ~policy:(Policy.round_robin ())
            programs
        in
        [
          string_of_int quantum;
          (if Array.for_all Fun.id r.finished then "yes" else "no");
          (if Scenarios.decision outputs <> None then "yes" else "no");
          string_of_int (Fair_consensus.elections_lost obj);
          string_of_int (Hwf_sim.Trace.statements r.trace);
        ])
      [ 16; 64; 256; 2048 ]
  in
  Tbl.print ~title:"Fig. 9 under a fair (round-robin) scheduler, N=8 P=2 V=2"
    ~header:[ "Q"; "terminates"; "agreement"; "election losers (spinners)"; "statements" ]
    rows;
  (* unfair contrast *)
  let config, _, _, programs = build ~quantum:2048 ~layout:(Layout.uniform ~processors:1 ~per_processor:2) in
  let phase = ref `Warmup in
  let policy =
    Policy.of_fun "unfair" (fun v ->
        (match !phase with
        | `Warmup when v.Policy.step > 40 -> phase := `Starve
        | _ -> ());
        let prefer pid = if List.mem pid v.Policy.runnable then Some pid else None in
        match !phase with
        | `Warmup -> ( match prefer 0 with Some p -> Some p | None -> prefer 1)
        | `Starve -> ( match prefer 1 with Some p -> Some p | None -> prefer 0))
  in
  let r = Engine.run ~step_limit:30_000 ~config ~policy programs in
  Tbl.note
    "unfair scheduler contrast: the election loser spins forever — run\n\
     stopped by the step limit: %b (Fig. 9 is wait-free only in the\n\
     'finite number of its own steps under fairness' sense; Fig. 7 needs\n\
     no fairness)."
    (r.stop = Engine.Step_limit)
