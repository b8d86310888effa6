open Hwf_sim

(* ---- the static independence oracle ----

   The baseline relation ([Policy.independent]) declares two
   cross-processor transitions independent only when their footprints
   avoid a same-variable conflict. That loses the classic commuting
   cases: two fetch&adds on one counter commute as state updates
   (addition is commutative) even though both write the variable. What
   addition cannot fix is the {e results}: swapping two F&As swaps the
   old values they fetch. The oracle therefore extends the baseline
   only for RMW pairs whose kinds commute as updates {e and} whose
   nodes are result-insensitive: across every replay of the schedule
   battery, the node's per-process successor sequence is identical —
   the schedules vary the fetched values, so a value that steered
   control would have produced diverging successors in some replay.
   (A plain unique-successor test over the merged CFG would reject
   straight-line repetition — two consecutive F&As give the node the
   successor set {itself, next} — so the criterion is per-replay
   sequence equality, not merged-edge uniqueness.)

   Static insensitivity is an under-approximation in two ways the
   certifier below exists to police: the battery replays at most a
   dozen schedules (every replay may happen to fetch values that agree
   on the hidden branch), and a control-insensitive result can still
   escape as {e data} (stashed in a local, inspected by a harness
   verdict). Both escapes change a verdict or a per-process event
   sequence under reordering, which is exactly what [certify]'s
   swap-replay detects — the oracle is only armed through
   [certified_relation]. *)

module Node = struct
  type t = int * string (* pid, Cfg.key of the op *)

  let equal (p1, k1) (p2, k2) = p1 = p2 && String.equal k1 k2
  let hash = Hashtbl.hash
end

module Ntbl = Hashtbl.Make (Node)

(* RMW kinds that commute with themselves and each other as pure state
   updates: additive fetch-and-X. "C&S"/"propose"/"dcas" are
   first-writer-wins and stay dependent. *)
let additive_kind = function "F&A" | "F&I" -> true | _ -> false

type t = {
  insensitive : unit Ntbl.t;
      (* RMW nodes with replay-invariant successor sequences *)
  rmw_nodes : int;
  insensitive_nodes : int;
  indep_vars : string list;
      (* vars carrying only additive, insensitive RMW traffic *)
}

type summary = {
  rmw_nodes : int;
  insensitive_nodes : int;
  indep_vars : string list;
  indep_pairs : int;
}

let summary t =
  (* Count unordered node pairs the extension adds over the baseline:
     insensitive additive-RMW nodes of distinct pids on one variable
     (a node key reads "<kind> <var>"; non-additive kinds never commute,
     so they contribute no pairs however insensitive they are). *)
  let by_var = Hashtbl.create 8 in
  Ntbl.iter
    (fun (pid, key) () ->
      match String.index_opt key ' ' with
      | Some i when additive_kind (String.sub key 0 i) ->
        let var = String.sub key (i + 1) (String.length key - i - 1) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_var var) in
        if not (List.mem pid cur) then Hashtbl.replace by_var var (pid :: cur)
      | _ -> ())
    t.insensitive;
  let pairs =
    Hashtbl.fold
      (fun _ pids acc ->
        let n = List.length pids in
        acc + (n * (n - 1) / 2))
      by_var 0
  in
  {
    rmw_nodes = t.rmw_nodes;
    insensitive_nodes = t.insensitive_nodes;
    indep_vars = t.indep_vars;
    indep_pairs = pairs;
  }

let build (o : Lint.outcome) =
  let n = Config.n o.Lint.spec.Lint.config in
  (* Pids whose replays were cut by the step limit have incomplete
     successor sequences: claim nothing about them. *)
  let truncated_pids =
    List.fold_left (fun acc (pid, _) -> pid :: acc) [] o.Lint.cfg.Cfg.truncated
  in
  (* Every RMW node observed in the battery, in discovery order (the
     CFG keys alone cannot be parsed back into ops, so collect from the
     raw events). *)
  let rmw_nodes = ref 0 in
  let seen = Ntbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (run : Recorder.run) ->
      List.iter
        (fun (ev : Trace.event) ->
          match ev with
          | Trace.Stmt { pid; op = Op.Rmw _ as op; _ } ->
            let key = Cfg.key op in
            if not (Ntbl.mem seen (pid, key)) then begin
              Ntbl.add seen (pid, key) ();
              incr rmw_nodes;
              order := (pid, key) :: !order
            end
          | _ -> ())
        run.Recorder.events)
    o.Lint.runs_detail;
  (* One replay's successor map: for each RMW node, the ordered
     sequence of successor nodes its occurrences flowed to in that
     replay's per-process projection (invocation boundaries included as
     pseudo-nodes, like the CFG's). *)
  let succ_map (run : Recorder.run) =
    let seqs = Array.make n [] in
    let push pid node = if pid >= 0 && pid < n then seqs.(pid) <- node :: seqs.(pid) in
    List.iter
      (fun (ev : Trace.event) ->
        match ev with
        | Trace.Stmt { pid; op; _ } -> push pid (Cfg.key op)
        | Trace.Inv_begin { pid; label; _ } -> push pid ("entry:" ^ label)
        | Trace.Inv_end { pid; label; _ } -> push pid ("exit:" ^ label)
        | _ -> ())
      run.Recorder.events;
    let m = Ntbl.create 32 in
    Array.iteri
      (fun pid rev_seq ->
        let rec go = function
          | node :: rest ->
            if Ntbl.mem seen (pid, node) then begin
              let nxt = match rest with next :: _ -> next | [] -> "end" in
              let cur = Option.value ~default:[] (Ntbl.find_opt m (pid, node)) in
              Ntbl.replace m (pid, node) (nxt :: cur)
            end;
            go rest
          | [] -> ()
        in
        go (List.rev rev_seq))
      seqs;
    m
  in
  (* A node is result-insensitive when every replay agrees on its
     successor sequence: the battery varies the interleavings (and so
     the fetched values), so a result that steered control would have
     produced diverging successors in some replay. *)
  let insensitive = Ntbl.create 32 in
  (match o.Lint.runs_detail with
  | [] -> ()
  | first :: rest ->
    let reference = succ_map first in
    let others = List.map succ_map rest in
    List.iter
      (fun (pid, key) ->
        let agree =
          match Ntbl.find_opt reference (pid, key) with
          | None -> false
          | Some ref_succs ->
            List.for_all
              (fun m -> Ntbl.find_opt m (pid, key) = Some ref_succs)
              others
        in
        if agree && not (List.mem pid truncated_pids) then
          Ntbl.replace insensitive (pid, key) ())
      !order);
  (* Vars whose RMW traffic is exclusively additive and whose every
     observed RMW node is insensitive — the vars the relation can
     commute on (reported for observability; the relation itself
     checks pairwise). *)
  let indep_vars =
    List.filter_map
      (fun (var, info) ->
        let kinds = info.Astore.rmw_kinds in
        if
          kinds <> []
          && List.for_all additive_kind kinds
          && Ntbl.fold
               (fun (pid, key) () ok ->
                 ok
                 ||
                 (* at least one insensitive node on this var *)
                 match String.index_opt key ' ' with
                 | Some i ->
                   String.equal var
                     (String.sub key (i + 1) (String.length key - i - 1))
                   && Ntbl.mem insensitive (pid, key)
                 | None -> false)
               seen false
        then Some var
        else None)
      (Astore.vars o.Lint.store)
  in
  {
    insensitive;
    rmw_nodes = !rmw_nodes;
    insensitive_nodes = Ntbl.length insensitive;
    indep_vars;
  }

let insensitive t pid op = Ntbl.mem t.insensitive (pid, Cfg.key op)

let relation t : Policy.relation =
 fun a b ->
  Policy.independent a b
  || a.Policy.fknown && b.Policy.fknown
     && a.Policy.fproc <> b.Policy.fproc
     &&
     match (a.Policy.fop, b.Policy.fop) with
     | ( Some (Op.Rmw { var = v1; kind = k1 } as op1),
         Some (Op.Rmw { var = v2; kind = k2 } as op2) ) ->
       String.equal v1 v2 && additive_kind k1 && additive_kind k2
       && insensitive t a.Policy.fpid op1
       && insensitive t b.Policy.fpid op2
     | _ -> false

(* ---- differential swap-replay certification ----

   Record a handful of deterministic schedules with per-decision
   footprints; for each adjacent decision pair the relation claims
   independent, replay the schedule with the two decisions transposed
   and require (a) the same verdict and (b) per-process event
   sequences identical up to the global interleaving — Mazurkiewicz
   equivalence made operational. Any discrepancy is a refutation of
   the independence claim and a hard error for the caller. *)

type certification = {
  schedules : int;
  swaps : int;
  failures : string list;
}

(* Per-pid projection with global positions erased: two
   trace-equivalent runs must agree on these exactly. *)
let projection events n =
  let per = Array.make n [] in
  let push pid x = if pid >= 0 && pid < n then per.(pid) <- x :: per.(pid) in
  List.iter
    (fun (ev : Trace.event) ->
      match ev with
      | Trace.Stmt { pid; op; inv; cost; _ } ->
        push pid (Fmt.str "s:%a/%d/%d" Op.pp op inv cost)
      | Trace.Inv_begin { pid; inv; label } -> push pid (Fmt.str "b:%s/%d" label inv)
      | Trace.Inv_end { pid; inv; label } -> push pid (Fmt.str "e:%s/%d" label inv)
      | Trace.Set_priority { pid; priority } ->
        push pid (Fmt.str "p:%d" priority)
      | Trace.Axiom2_gate _ -> ())
    events;
  Array.map List.rev per

let record_schedule ~step_limit ~config ~policy programs =
  let decisions = Vec.create () in
  let fps = Vec.create () in
  let recording =
    Policy.of_factory "indep-record" (fun () ->
        let choose = Policy.prepare policy in
        fun view ->
          match choose view with
          | Some pid as r ->
            Vec.push decisions pid;
            Vec.push fps (Policy.footprint view pid);
            r
          | None -> None)
  in
  let result = Engine.run ~step_limit ~config ~policy:recording programs in
  (result, Vec.to_list decisions, Vec.to_list fps)

let certify ?(max_swaps = 64) ?(check = fun (_ : Engine.result) -> Ok ())
    ~config ~make t =
  let rel = relation t in
  let n = Config.n config in
  let step_limit = 200_000 in
  let policies = Recorder.battery ~budget:4 ~fair_only:true () in
  let swaps = ref 0 in
  let failures = ref [] in
  let schedules = ref 0 in
  let fail fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (pname, mk_policy) ->
      if !swaps < max_swaps then begin
        incr schedules;
        let result0, decisions, fps =
          record_schedule ~step_limit ~config ~policy:(mk_policy ()) (make ())
        in
        let verdict0 = check result0 in
        let proj0 = projection (Trace.events result0.Engine.trace) n in
        let decisions = Array.of_list decisions in
        let fps = Array.of_list fps in
        (* Certify each distinct claimed-independent (op,op) node pair
           at its first adjacent occurrence in this schedule. *)
        let tried = Hashtbl.create 16 in
        for i = 0 to Array.length fps - 2 do
          if !swaps < max_swaps then begin
            let a = fps.(i) and b = fps.(i + 1) in
            let pair_key =
              ( a.Policy.fpid,
                Option.map Cfg.key a.Policy.fop,
                b.Policy.fpid,
                Option.map Cfg.key b.Policy.fop )
            in
            (* Only claims BEYOND the baseline need certification here:
               the baseline relation is regression-tested by the DPOR
               parity suite, and spending the swap budget on disjoint
               pairs would starve the extension claims. *)
            if
              a.Policy.fpid <> b.Policy.fpid
              && rel a b
              && not (Policy.independent a b)
              && not (Hashtbl.mem tried pair_key)
            then begin
              Hashtbl.add tried pair_key ();
              incr swaps;
              let swapped = Array.copy decisions in
              swapped.(i) <- decisions.(i + 1);
              swapped.(i + 1) <- decisions.(i);
              let policy = Policy.scripted (Array.to_list swapped) in
              let result1 =
                Engine.run ~step_limit ~config ~policy (make ())
              in
              let verdict1 = check result1 in
              let describe () =
                Fmt.str "%s: swap @@%d (p%d:%a / p%d:%a)" pname i
                  (a.Policy.fpid + 1)
                  Fmt.(option ~none:(any "?") Op.pp)
                  a.Policy.fop
                  (b.Policy.fpid + 1)
                  Fmt.(option ~none:(any "?") Op.pp)
                  b.Policy.fop
              in
              if
                Trace.statements result1.Engine.trace
                <> Trace.statements result0.Engine.trace
              then
                fail "%s: swapped replay diverged (%d statements vs %d)"
                  (describe ())
                  (Trace.statements result1.Engine.trace)
                  (Trace.statements result0.Engine.trace)
              else if verdict1 <> verdict0 then
                fail "%s: verdict changed under reordering (%s vs %s)"
                  (describe ())
                  (match verdict1 with Ok () -> "ok" | Error m -> m)
                  (match verdict0 with Ok () -> "ok" | Error m -> m)
              else begin
                let proj1 = projection (Trace.events result1.Engine.trace) n in
                let mismatch = ref None in
                Array.iteri
                  (fun pid p0 ->
                    if !mismatch = None && p0 <> proj1.(pid) then
                      mismatch := Some pid)
                  proj0;
                match !mismatch with
                | Some pid ->
                  fail "%s: p%d's event sequence changed under reordering"
                    (describe ()) (pid + 1)
                | None -> ()
              end
            end
          end
        done
      end)
    policies;
  { schedules = !schedules; swaps = !swaps; failures = List.rev !failures }

let certified_relation ?max_swaps ?check ~config ~make o =
  let t = build o in
  let cert = certify ?max_swaps ?check ~config ~make t in
  match cert.failures with
  | [] -> Ok (t, cert)
  | f :: _ ->
    Error
      (Fmt.str
         "Indep.certified_relation: independence claim refuted by swap replay \
          (%d of %d swaps failed; first: %s)"
         (List.length cert.failures) cert.swaps f)

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>rmw nodes: %d (%d result-insensitive)@,\
     commuting vars: %a@,\
     pairs proven independent beyond baseline: %d@]"
    s.rmw_nodes s.insensitive_nodes
    Fmt.(list ~sep:comma string)
    s.indep_vars s.indep_pairs

let pp_certification ppf c =
  if c.failures = [] then
    Fmt.pf ppf "certified: %d swap replays over %d schedules, all equivalent"
      c.swaps c.schedules
  else
    Fmt.pf ppf "@[<v>REFUTED (%d/%d swaps):@,%a@]"
      (List.length c.failures)
      c.swaps
      Fmt.(list ~sep:(any "@,") string)
      c.failures
