open Hwf_sim
open Hwf_objects

(* Port[i,v] is advanced with both F&I (line 23/25) and C&S (lines 9/21),
   so its chain state machine supports both operations. *)
type port_op = Fetch_inc | Port_cas of int * int

type 'a t = {
  name : string;
  config : Config.t;
  c : int;
  k : int;
  l : int;
  numports : int array;  (* per processor *)
  outval : 'a option Shared.t array array;  (* [P][0..L]; index 0 unused *)
  lastpub : int Q_cas.t array array;  (* [P][V] *)
  port : (int, port_op, int) Chain.t array array;  (* [P][V]; state = next port *)
  elections : int Uni_consensus.t Vec.t array;  (* [P], per port, lazy *)
  cons : 'a Cons_obj.t array;  (* [L] *)
  (* harness statistics *)
  mutable exhausted : int;
  af : (int * int, [ `Same | `Diff | `Both ]) Hashtbl.t;
      (* (processor, level) pairs observed inaccessible-yet-unpublished
         at input-determination time — the paper's access failures —
         classified by the observer's priority vs the parked claimant's
         (same-priority / different-priority, Sec. 4.2) *)
  claimants : (int * int, int) Hashtbl.t;  (* (processor, level) -> last claimant pid *)
  (* every AF observation, not just distinct (processor, level) sites —
     the totals the observability layer exports *)
  mutable af_same_events : int;
  mutable af_diff_events : int;
  line : Op.t array;  (* [line.(l)]: the local statement of Fig. 7 line [l] *)
}

(* [".l"] for every line [l] of Fig. 7, shared by all objects. *)
let line_suffix = Array.init 35 (fun l -> "." ^ string_of_int l)

let apply_port s = function
  | Fetch_inc -> (s + 1, s)
  | Port_cas (e, d) -> if s = e then (d, 1) else (s, 0)

let make ?levels_override ~config ~name ~consensus_number () =
  let p = config.Config.processors in
  if consensus_number < p then
    invalid_arg "Multi_consensus.make: consensus_number < processors";
  let k = Bounds.fig7_k ~p ~consensus_number in
  let m = max 1 (Config.max_per_processor config) in
  let l =
    match levels_override with
    | Some l ->
      if l < 1 then invalid_arg "Multi_consensus.make: levels_override < 1";
      l
    | None -> Bounds.levels ~m ~p ~k
  in
  let v = config.Config.levels in
  {
    name;
    config;
    c = consensus_number;
    k;
    l;
    numports = Array.init p (fun i -> Bounds.ports_per_processor ~p ~k ~processor:i);
    outval =
      Array.init p (fun i ->
          Array.init (l + 1) (fun lev ->
              Shared.make (Shared.subscript2 (name ^ ".Outval") (i + 1) lev) None));
    lastpub =
      Array.init p (fun i ->
          Array.init v (fun w ->
              Q_cas.make (Shared.subscript2 (name ^ ".Lastpub") (i + 1) (w + 1)) 0));
    port =
      Array.init p (fun i ->
          Array.init v (fun w ->
              Chain.make
                ~name:(Shared.subscript2 (name ^ ".Port") (i + 1) (w + 1))
                ~init:1 ~apply:apply_port));
    elections = Array.init p (fun _ -> Vec.create ());
    cons =
      Array.init l (fun lev ->
          Cons_obj.make ~consensus_number (Shared.subscript (name ^ ".Cons") (lev + 1)));
    exhausted = 0;
    af = Hashtbl.create 32;
    claimants = Hashtbl.create 32;
    af_same_events = 0;
    af_diff_events = 0;
    line = Array.map (fun suffix -> Op.local (name ^ suffix)) line_suffix;
  }

let election t i port =
  let v = t.elections.(i) in
  while Vec.length v < port do
    Vec.push v
      (Uni_consensus.make (Shared.subscript2 (t.name ^ ".elect") (i + 1) (Vec.length v + 1)))
  done;
  Vec.get v (port - 1)

let levels t = t.l
let k t = t.k

(* Fig. 7, procedure decide(val). Line numbers follow the paper. *)
let decide t ~pid input0 =
  let i = t.config.Config.procs.(pid).Proc.processor in
  let v = t.config.Config.procs.(pid).Proc.priority in
  let lastpub_v = t.lastpub.(i).(v - 1) in
  let port_v = t.port.(i).(v - 1) in
  match Shared.read t.outval.(i).(t.l) (* line 1 *) with
  | Some r ->
    Eff.step t.line.(2);
    r (* line 2 *)
  | None ->
    Eff.step t.line.(3);
    let numports = t.numports.(i) (* line 3 *) in
    Eff.step t.line.(4);
    let input = ref input0 and prevlevel = ref 0 and level = ref 0 (* line 4 *) in
    (* lines 5-13: lower-priority processes may have made progress *)
    for w = 1 to v - 1 do
      let lowerport = Chain.read t.port.(i).(w - 1) (* line 6 *) in
      let port = Chain.read port_v (* line 7 *) in
      Eff.step t.line.(8);
      if lowerport > port (* line 8 *) then
        ignore (Chain.invoke port_v ~who:pid (Port_cas (port, lowerport))) (* line 9 *);
      let lowerpublevel = Q_cas.read t.lastpub.(i).(w - 1) (* line 10 *) in
      let publevel = Q_cas.read lastpub_v (* line 11 *) in
      Eff.step t.line.(12);
      if lowerpublevel > publevel (* line 12 *) then
        ignore
          (Q_cas.cas lastpub_v ~who:pid ~expected:publevel ~desired:lowerpublevel)
        (* line 13 *)
    done;
    let result = ref None in
    while !result = None && !level <= t.l (* line 14 *) do
      (match Shared.read t.outval.(i).(t.l) (* line 15 *) with
      | Some r ->
        Eff.step t.line.(16);
        result := Some r (* line 16 *)
      | None ->
        let port = Chain.read port_v (* line 17 *) in
        Eff.step t.line.(18);
        level := ((port - 1) / numports) + 1 (* line 18 *);
        let claimed_port =
          Eff.step t.line.(19);
          if !prevlevel = !level (* line 19 *) then begin
            Eff.step t.line.(20);
            let newport = port + numports (* line 20 *) in
            if Chain.invoke port_v ~who:pid (Port_cas (port, newport + 1)) = 1
               (* line 21 *)
            then begin
              Eff.step t.line.(22);
              newport (* line 22 *)
            end
            else Chain.invoke port_v ~who:pid Fetch_inc (* line 23 *)
          end
          else Chain.invoke port_v ~who:pid Fetch_inc (* line 25 *)
        in
        Eff.step t.line.(26);
        level := ((claimed_port - 1) / numports) + 1 (* line 26 *);
        (* Access-failure instrumentation (Sec. 4.2): at this moment every
           port of every level below [level] on this processor has been
           claimed; any such level still without a published output is an
           access failure, classified same-/different-priority by the
           observer vs the parked claimant. Harness-only peeks, inside a
           Runtime.instrumentation bracket: exempt from the process-code
           guard and invisible to the conformance linter. *)
        Runtime.instrumentation (fun () ->
            for l = 1 to min !level t.l - 1 do
              if Shared.peek t.outval.(i).(l) = None then begin
                let cls =
                  match Hashtbl.find_opt t.claimants (i, l) with
                  | Some claimant
                    when t.config.Config.procs.(claimant).Proc.priority = v ->
                    `Same
                  | Some _ -> `Diff
                  | None -> `Diff (* ports consumed but never election-claimed *)
                in
                (match cls with
                | `Same -> t.af_same_events <- t.af_same_events + 1
                | `Diff -> t.af_diff_events <- t.af_diff_events + 1
                | `Both -> assert false (* fresh classification is never merged *));
                let cls =
                  match Hashtbl.find_opt t.af (i, l) with
                  | None -> cls
                  | Some prev when prev = cls -> cls
                  | Some _ -> `Both
                in
                Hashtbl.replace t.af (i, l) cls
              end
            done);
        let publevel = Q_cas.read lastpub_v (* line 27 *) in
        Eff.step t.line.(28);
        if publevel <> 0 then begin
          match Shared.read t.outval.(i).(publevel) (* line 28 *) with
          | Some out -> input := out
          | None -> assert false (* Outval is written before Lastpub advances *)
        end;
        if !level <= t.l (* line 29 *) then begin
          (* line 30: at most one process may use each port *)
          if Uni_consensus.decide (election t i claimed_port) pid = pid then begin
            Hashtbl.replace t.claimants (i, !level) pid;
            let output =
              match Cons_obj.propose t.cons.(!level - 1) !input (* line 31 *) with
              | Some out -> out
              | None ->
                (* Exhausted object: no useful information (only possible
                   below the Theorem 3 quantum threshold). *)
                t.exhausted <- t.exhausted + 1;
                !input
            in
            Shared.write t.outval.(i).(!level) (Some output) (* line 32 *);
            ignore (Q_cas.cas lastpub_v ~who:pid ~expected:publevel ~desired:!level)
            (* line 33 *)
          end;
          Eff.step t.line.(34);
          prevlevel := !level (* line 34 *)
        end)
    done;
    (match !result with
    | Some r -> r
    | None -> (
      let publevel = Q_cas.read lastpub_v (* line 35 *) in
      match
        if publevel = 0 then None else Shared.read t.outval.(i).(publevel)
        (* line 36 *)
      with
      | Some r -> r
      | None ->
        (* Unreachable when the quantum assumption holds; return own input
           so under-quantum adversarial runs terminate (E6 detects the
           disagreement). *)
        !input))

let exhausted_proposals t = t.exhausted

let access_failures t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.af [] |> List.sort compare

let access_failures_classified t =
  Hashtbl.fold
    (fun (i, l) cls (same, diff) ->
      match cls with
      | `Same -> ((i, l) :: same, diff)
      | `Diff -> (same, (i, l) :: diff)
      | `Both -> ((i, l) :: same, (i, l) :: diff))
    t.af ([], [])
  |> fun (same, diff) -> (List.sort compare same, List.sort compare diff)

let access_failure_events t = (t.af_same_events, t.af_diff_events)

let first_deciding_level t =
  let af = access_failures t in
  let failed_levels = List.map snd af |> List.sort_uniq compare in
  let rec find lev =
    if lev > t.l then None
    else if List.mem lev failed_levels then find (lev + 1)
    else Some lev
  in
  find 1
