open Hwf_sim
open Hwf_core
open Hwf_check
open Hwf_adversary

type consensus_impl =
  | Fig3
  | Fig7 of { consensus_number : int }
  | Fig9 of { consensus_number : int }

type consensus_built = {
  scenario : Explore.scenario;
  last_outputs : unit -> int option array;
  last_decision : unit -> int option;
}

let all_finished (r : Engine.result) = Array.for_all Fun.id r.finished

let agreement_check ~n outputs (r : Engine.result) extra =
  if not (all_finished r) then Error "not all processes finished"
  else
    let outs = Array.map (function Some v -> v | None -> -1) outputs in
    let first = outs.(0) in
    if Array.exists (fun v -> v <> first) outs then
      Error (Fmt.str "disagreement: %a" Fmt.(Dump.array int) outs)
    else if first < 100 || first >= 100 + n then
      Error (Fmt.str "invalid decision %d" first)
    else extra ()

let consensus ~name ~impl ~quantum ~layout =
  let n = List.length layout in
  let config = Layout.to_config ~quantum layout in
  (match impl with
  | Fig3 ->
    if Layout.processors layout <> 1 then
      invalid_arg "Scenarios.consensus: Fig3 requires a uniprocessor layout"
  | Fig7 _ | Fig9 _ -> ());
  let latest = ref (Array.make n None) in
  let make () =
    let outputs = Array.make n None in
    latest := outputs;
    let decide =
      match impl with
      | Fig3 ->
        let obj = Uni_consensus.make (name ^ ".cons") in
        fun _pid v -> Uni_consensus.decide obj v
      | Fig7 { consensus_number } ->
        let obj = Multi_consensus.make ~config ~name:(name ^ ".mc") ~consensus_number () in
        fun pid v -> Multi_consensus.decide obj ~pid v
      | Fig9 { consensus_number } ->
        let obj = Fair_consensus.make ~config ~name:(name ^ ".fc") ~consensus_number in
        fun pid v -> Fair_consensus.decide obj ~pid v
    in
    let programs =
      Array.init n (fun pid () ->
          Eff.invocation "decide" (fun () -> outputs.(pid) <- Some (decide pid (100 + pid))))
    in
    let check r = agreement_check ~n outputs r (fun () -> Ok ()) in
    Explore.{ programs; check }
  in
  {
    scenario = Explore.{ name; config; make };
    last_outputs = (fun () -> !latest);
    last_decision =
      (fun () ->
        let o = !latest in
        match Array.to_list o |> List.filter_map Fun.id with
        | [] -> None
        | v :: rest -> if List.for_all (( = ) v) rest then Some v else None);
  }

type mc_summary = {
  finished : bool;
  agreed : bool;
  valid : bool;
  exhausted : int;
  access_failures : (int * int) list;
  af_same : (int * int) list;
  af_diff : (int * int) list;
  af_same_events : int;
  af_diff_events : int;
  deciding_level : int option;
  levels : int;
  statements : int;
  max_own_steps : int;
  well_formed : bool;
  trace : Trace.t;
}

let run_multi ?(step_limit = 3_000_000) ?sink ~quantum ~consensus_number ~layout
    ~policy () =
  let n = List.length layout in
  let config = Layout.to_config ~quantum layout in
  let obj = Multi_consensus.make ~config ~name:"mc" ~consensus_number () in
  let outputs = Array.make n None in
  let programs =
    Array.init n (fun pid () ->
        Eff.invocation "decide" (fun () ->
            outputs.(pid) <- Some (Multi_consensus.decide obj ~pid (100 + pid))))
  in
  let r = Engine.run ~step_limit ?sink ~config ~policy programs in
  let outs = Array.to_list outputs |> List.filter_map Fun.id in
  let distinct = List.sort_uniq compare outs in
  let af_same_events, af_diff_events = Multi_consensus.access_failure_events obj in
  {
    finished = all_finished r;
    agreed = List.length distinct <= 1;
    valid = List.for_all (fun v -> v >= 100 && v < 100 + n) distinct;
    exhausted = Multi_consensus.exhausted_proposals obj;
    access_failures = Multi_consensus.access_failures obj;
    af_same = fst (Multi_consensus.access_failures_classified obj);
    af_diff = snd (Multi_consensus.access_failures_classified obj);
    af_same_events;
    af_diff_events;
    deciding_level = Multi_consensus.first_deciding_level obj;
    levels = Multi_consensus.levels obj;
    statements = Trace.statements r.trace;
    max_own_steps = Array.fold_left max 0 r.own_steps;
    well_formed = Wellformed.is_well_formed r.trace;
    trace = r.trace;
  }

let adversarial_policies ~seeds ~var_prefix =
  (fun () -> Stagger.max_interleave ())
  :: List.concat_map
       (fun seed ->
         [
           (fun () -> Policy.random ~seed);
           (fun () -> Stagger.exhaustion_pressure ~seed ~var_prefix ());
           (fun () -> Stagger.delayed_wake ~seed ~wake_every:(40 + (seed mod 60)) ());
           (fun () ->
             (* staggering with random escapes: breaks the lockstep that
                pure max-interleave can settle into *)
             Policy.of_factory "stagger-mix" (fun () ->
                 let stagger = Policy.prepare (Stagger.max_interleave ()) in
                 fun v ->
                   let st = Random.State.make [| seed; v.Policy.step |] in
                   if Random.State.int st 4 = 0 then
                     Policy.prepare (Policy.random ~seed:(seed + v.Policy.step)) v
                   else stagger v));
         ])
       seeds

let violation (s : mc_summary) =
  (not s.finished) || (not s.agreed) || (not s.valid) || s.exhausted > 0

(* C&S scenarios *)

type cas_op = Cas of int * int | Rd

let pp_cas_op ppf = function
  | Cas (e, d) -> Fmt.pf ppf "C&S(%d,%d)" e d
  | Rd -> Fmt.pf ppf "Read"

let random_script ~seed ~n ~ops_per =
  let st = Random.State.make [| seed; 0xcabe |] in
  List.init n (fun pid ->
      List.init ops_per (fun k ->
          match Random.State.int st 3 with
          | 0 -> Rd
          | 1 -> Cas (0, (pid * 100) + k + 1)
          | _ ->
            Cas (Random.State.int st (n * 100), (pid * 100) + k + 51)))

let cas_spec =
  Lincheck.make_spec ~init:0 ~apply:(fun s op ->
      match op with
      | Cas (e, d) -> if s = e then (d, `Bool true) else (s, `Bool false)
      | Rd -> (s, `Val s))

let hybrid_cas ~name ~quantum ~layout ~script =
  if Layout.processors layout <> 1 then
    invalid_arg "Scenarios.hybrid_cas: uniprocessor layout required";
  let n = List.length layout in
  if List.length script <> n then invalid_arg "Scenarios.hybrid_cas: script/layout mismatch";
  let config = Layout.to_config ~quantum layout in
  let make () =
    let obj = Hybrid_cas.make ~config ~name:(name ^ ".o") ~init:0 in
    let hist = Hist.create () in
    let programs =
      Array.init n (fun pid () ->
          List.iter
            (fun op ->
              Eff.invocation "op" (fun () ->
                  match op with
                  | Cas (e, d) ->
                    ignore
                      (Hist.wrap hist ~pid op (fun () ->
                           `Bool (Hybrid_cas.cas obj ~pid ~expected:e ~desired:d)))
                  | Rd ->
                    ignore
                      (Hist.wrap hist ~pid op (fun () -> `Val (Hybrid_cas.read obj ~pid)))))
            (List.nth script pid))
    in
    let check r =
      if not (all_finished r) then Error "not all processes finished"
      else Lincheck.check_hist cas_spec hist
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }

type cas_summary = {
  cas_finished : bool;
  linearizable : bool;
  cas_stats : Hybrid_cas.stats;
  cas_well_formed : bool;
  cas_trace : Trace.t;
}

let run_cas ?(step_limit = 3_000_000) ?sink ~quantum ~layout ~script ~policy () =
  if Layout.processors layout <> 1 then
    invalid_arg "Scenarios.run_cas: uniprocessor layout required";
  let n = List.length layout in
  if List.length script <> n then invalid_arg "Scenarios.run_cas: script/layout mismatch";
  let config = Layout.to_config ~quantum layout in
  let obj = Hybrid_cas.make ~config ~name:"cas.o" ~init:0 in
  let hist = Hist.create () in
  let programs =
    Array.init n (fun pid () ->
        List.iter
          (fun op ->
            Eff.invocation "op" (fun () ->
                match op with
                | Cas (e, d) ->
                  ignore
                    (Hist.wrap hist ~pid op (fun () ->
                         `Bool (Hybrid_cas.cas obj ~pid ~expected:e ~desired:d)))
                | Rd ->
                  ignore (Hist.wrap hist ~pid op (fun () -> `Val (Hybrid_cas.read obj ~pid)))))
          (List.nth script pid))
  in
  let r = Engine.run ~step_limit ?sink ~config ~policy programs in
  {
    cas_finished = all_finished r;
    linearizable = Lincheck.check_hist cas_spec hist = Ok ();
    cas_stats = Hybrid_cas.stats obj;
    cas_well_formed = Wellformed.is_well_formed r.trace;
    cas_trace = r.trace;
  }

let q_cas ~name ~quantum ~n ~script =
  if List.length script <> n then invalid_arg "Scenarios.q_cas: script length mismatch";
  let layout = Layout.uniform ~processors:1 ~per_processor:n in
  let config = Layout.to_config ~quantum layout in
  let make () =
    let obj = Q_cas.make (name ^ ".o") 0 in
    let hist = Hist.create () in
    let programs =
      Array.init n (fun pid () ->
          List.iter
            (fun op ->
              Eff.invocation "op" (fun () ->
                  match op with
                  | Cas (e, d) ->
                    ignore
                      (Hist.wrap hist ~pid op (fun () ->
                           `Bool (Q_cas.cas obj ~who:pid ~expected:e ~desired:d)))
                  | Rd ->
                    ignore (Hist.wrap hist ~pid op (fun () -> `Val (Q_cas.read obj)))))
            (List.nth script pid))
    in
    let check r =
      if not (all_finished r) then Error "not all processes finished"
      else Lincheck.check_hist cas_spec hist
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }

(* Universal-construction scenarios *)

let queue_spec =
  Lincheck.make_spec ~init:([], []) ~apply:(fun st op ->
      match op with
      | `Enq x ->
        let f, b = st in
        ((f, x :: b), None)
      | `Deq -> (
        match st with
        | x :: f, b -> ((f, b), Some x)
        | [], b -> (
          match List.rev b with
          | x :: f -> ((f, []), Some x)
          | [] -> (([], []), None))))

let universal_queue ~name ~quantum ~consensus_number ~layout ~ops_per =
  let n = List.length layout in
  let config = Layout.to_config ~quantum layout in
  let make () =
    let factory = Wf_objects.multi_factory ~config ~consensus_number () in
    let q = Wf_objects.queue ~name:(name ^ ".q") ~n ~factory in
    let hist = Hist.create () in
    let programs =
      Array.init n (fun pid () ->
          for k = 0 to ops_per - 1 do
            Eff.invocation "enq" (fun () ->
                let v = (pid * 1000) + k in
                ignore
                  (Hist.wrap hist ~pid (`Enq v) (fun () ->
                       Wf_objects.enqueue q ~pid v;
                       None)))
          done;
          for _ = 0 to ops_per - 1 do
            Eff.invocation "deq" (fun () ->
                ignore (Hist.wrap hist ~pid `Deq (fun () -> Wf_objects.dequeue q ~pid)))
          done)
    in
    let check r =
      if not (all_finished r) then Error "not all processes finished"
      else Lincheck.check_hist queue_spec hist
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }

let universal_counter_uni ~name ~quantum ~pris =
  let n = List.length pris in
  let layout = List.map (fun p -> (0, p)) pris in
  let config = Layout.to_config ~quantum layout in
  let make () =
    let factory = Wf_objects.uni_factory () in
    let c = Wf_objects.counter ~name:(name ^ ".ctr") ~n ~factory in
    let results = Array.make n (-1) in
    let programs =
      Array.init n (fun pid () ->
          Eff.invocation "incr" (fun () -> results.(pid) <- Wf_objects.incr c ~pid))
    in
    let check r =
      if not (all_finished r) then Error "not all processes finished"
      else
        let sorted = Array.copy results in
        Array.sort compare sorted;
        if sorted = Array.init n (fun i -> i + 1) then Ok ()
        else Error (Fmt.str "counter results not 1..N: %a" Fmt.(Dump.array int) results)
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }
