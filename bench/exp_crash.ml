(* E15 — wait-freedom under halting failures (Sec. 2's failure model):
   the scheduler simply stops selecting some processes; every process it
   keeps scheduling still finishes in a bounded number of own statements
   and the safety properties hold among the survivors. *)

open Hwf_sim
open Hwf_core
open Hwf_workload
open Hwf_faults

(* Each victim crashes right after the first statement of its decide.
   A preemption falls between two statements of an invocation, so none
   can have granted the victim a quantum guarantee yet, and the injector
   parks it at once. (A later crash point lets the victim be preempted
   first; at Q = 4000 the guarantee it then holds outlasts its whole
   decide, and it is never parked.) *)
let fig7_with_crashes ~seeds ~crash_per_processor =
  let layout = Layout.uniform ~processors:2 ~per_processor:3 in
  let config = Layout.to_config ~quantum:4000 layout in
  let n = 6 in
  let victims =
    List.concat_map (fun cpu -> List.init crash_per_processor (fun k -> (cpu * 3) + k)) [ 0; 1 ]
  in
  let plan = Plan.crashes (List.map (fun victim -> { Plan.victim; after = 1 }) victims) in
  let ok = ref 0 and total = ref 0 in
  List.iter
    (fun seed ->
      let obj = Multi_consensus.make ~config ~name:"mc" ~consensus_number:2 () in
      let outs, bodies =
        Scenarios.propose_once ~n (fun pid v -> Multi_consensus.decide obj ~pid v)
      in
      let r =
        Inject.run ~step_limit:4_000_000 ~plan ~config ~policy:(Policy.random ~seed) bodies
      in
      incr total;
      if not (List.for_all (fun v -> r.halted.(v)) victims) then
        failwith (Printf.sprintf "E15: seed %d: a victim was not parked" seed);
      (* A survivor is a process its crash did not park. *)
      let survivors = List.filter (fun p -> not r.halted.(p)) (List.init n Fun.id) in
      if
        List.for_all (fun p -> r.finished.(p)) survivors
        && Scenarios.survivors_agree outs survivors = Ok ()
        && Wellformed.is_well_formed r.trace
      then incr ok)
    seeds;
  (!ok, !total)

let run ~quick =
  Tbl.section "E15: halting failures — wait-freedom among survivors";
  let seeds = List.init (if quick then 25 else 150) Fun.id in
  let counts =
    List.map
      (fun crash_per_processor ->
        (crash_per_processor, fig7_with_crashes ~seeds ~crash_per_processor))
      [ 0; 1; 2 ]
  in
  Tbl.print
    ~title:
      "Fig. 7 consensus (P=2, C=2, N=6) with processes crashed mid-operation"
    ~header:[ "crashed"; "survivors"; "runs where all survivors decide+agree" ]
    (List.map
       (fun (crash_per_processor, (ok, total)) ->
         [
           string_of_int (2 * crash_per_processor);
           string_of_int (6 - (2 * crash_per_processor));
           Printf.sprintf "%d/%d" ok total;
         ])
       counts);
  Tbl.note
    "crashed processes are parked forever mid-invocation, right after\n\
     the first statement of their decide (each is checked parked);\n\
     wait-freedom is exactly that the schedule of the survivors never\n\
     has to wait for them.";
  if List.exists (fun (_, (ok, total)) -> ok <> total) counts then
    failwith "E15: a survivor did not finish, disagreed or ran ill-formed"
