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

(* The three program bodies of the paper's workloads. Each takes the
   caller's object (or its operations) and keeps no state of its own,
   so [make] closures built on them stay domain-safe. *)

let propose_once ~n decide =
  let outputs = Array.make n None in
  let programs =
    Array.init n (fun pid () ->
        Eff.invocation "decide" (fun () -> outputs.(pid) <- Some (decide pid (100 + pid))))
  in
  (outputs, programs)

let increment_once ~n incr =
  let results = Array.make n None in
  let programs =
    Array.init n (fun pid () ->
        Eff.invocation "incr" (fun () -> results.(pid) <- Some (incr pid)))
  in
  (results, programs)

let decision outputs =
  match Array.to_list outputs |> List.filter_map Fun.id with
  | [] -> None
  | v :: rest -> if List.for_all (( = ) v) rest then Some v else None

let survivors_agree outputs survivors =
  let n = Array.length outputs in
  let outs = List.filter_map (fun p -> outputs.(p)) survivors in
  match List.sort_uniq compare outs with
  | [] -> Ok ()
  | [ v ] when v >= 100 && v < 100 + n -> Ok ()
  | [ v ] -> Error (Fmt.str "invalid decision %d" v)
  | vs -> Error (Fmt.str "disagreement: %a" Fmt.(Dump.list int) vs)

let agreement_check outputs (r : Engine.result) =
  let n = Array.length outputs in
  if not (all_finished r) then Error "not all processes finished"
  else
    let outs = Array.map (function Some v -> v | None -> -1) outputs in
    let first = outs.(0) in
    if Array.exists (fun v -> v <> first) outs then
      Error (Fmt.str "disagreement: %a" Fmt.(Dump.array int) outs)
    else if first < 100 || first >= 100 + n then
      Error (Fmt.str "invalid decision %d" first)
    else Ok ()

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
    let outputs, programs = propose_once ~n decide in
    latest := outputs;
    Explore.{ programs; check = agreement_check outputs }
  in
  {
    scenario = Explore.{ name; config; make };
    last_outputs = (fun () -> !latest);
    last_decision = (fun () -> decision !latest);
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
  let outputs, programs =
    propose_once ~n (fun pid v -> Multi_consensus.decide obj ~pid v)
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

let cas_programs ~cas ~read script =
  let hist = Hist.create () in
  let programs =
    List.mapi
      (fun pid ops () ->
        List.iter
          (fun op ->
            Eff.invocation "op" (fun () ->
                ignore
                  (Hist.wrap hist ~pid op (fun () ->
                       match op with
                       | Cas (e, d) -> `Bool (cas ~pid e d)
                       | Rd -> `Val (read ~pid)))))
          ops)
      script
  in
  (hist, Array.of_list programs)

let linearizable_check hist r =
  if not (all_finished r) then Error "not all processes finished"
  else Lincheck.check_hist cas_spec hist

let uni_cas_config fn ~quantum ~layout ~script =
  if Layout.processors layout <> 1 then
    invalid_arg (fn ^ ": uniprocessor layout required");
  if List.length script <> List.length layout then
    invalid_arg (fn ^ ": script/layout mismatch");
  Layout.to_config ~quantum layout

let hybrid_cas_programs ~config ~name script =
  let obj = Hybrid_cas.make ~config ~name ~init:0 in
  let hist, programs =
    cas_programs script
      ~cas:(fun ~pid expected desired -> Hybrid_cas.cas obj ~pid ~expected ~desired)
      ~read:(fun ~pid -> Hybrid_cas.read obj ~pid)
  in
  (obj, hist, programs)

let hybrid_cas ~name ~quantum ~layout ~script =
  let config = uni_cas_config "Scenarios.hybrid_cas" ~quantum ~layout ~script in
  let make () =
    let _, hist, programs = hybrid_cas_programs ~config ~name:(name ^ ".o") script in
    Explore.{ programs; check = linearizable_check hist }
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
  let config = uni_cas_config "Scenarios.run_cas" ~quantum ~layout ~script in
  let obj, hist, programs = hybrid_cas_programs ~config ~name:"cas.o" script in
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
    let hist, programs =
      cas_programs script
        ~cas:(fun ~pid expected desired -> Q_cas.cas obj ~who:pid ~expected ~desired)
        ~read:(fun ~pid:_ -> Q_cas.read obj)
    in
    Explore.{ programs; check = linearizable_check hist }
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
    let results, programs = increment_once ~n (fun pid -> Wf_objects.incr c ~pid) in
    let check r =
      if not (all_finished r) then Error "not all processes finished"
      else
        let results = Array.map (Option.value ~default:(-1)) results in
        let sorted = Array.copy results in
        Array.sort compare sorted;
        if sorted = Array.init n (fun i -> i + 1) then Ok ()
        else Error (Fmt.str "counter results not 1..N: %a" Fmt.(Dump.array int) results)
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }
