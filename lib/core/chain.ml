open Hwf_sim

type ('s, 'op, 'r) t = {
  name : string;
  init : 's;
  apply : 's -> 'op -> 's * 'r;
  slots : (int * int * 'op) Uni_consensus.t Vec.t;
  vals : 's option Shared.t Vec.t;
  ver : int Shared.t;
  seqs : (int, int ref) Hashtbl.t;  (* private per-process op counters *)
  mutable max_attempts : int;
  propose : Op.t;  (* the local statement before each slot proposal *)
}

(* find_current (~4 stmts) + decide (8) + two writes + locals *)
let statements_per_attempt_hint = 16

let val_cell t k =
  while Vec.length t.vals <= k do
    Vec.push t.vals
      (Shared.make (Shared.subscript (t.name ^ ".val") (Vec.length t.vals)) None)
  done;
  Vec.get t.vals k

let slot_cell t k =
  while Vec.length t.slots <= k do
    Vec.push t.slots
      (Uni_consensus.make (Shared.subscript (t.name ^ ".slot") (Vec.length t.slots)))
  done;
  Vec.get t.slots k

let make ~name ~init ~apply =
  let t =
    {
      name;
      init;
      apply;
      slots = Vec.create ();
      vals = Vec.create ();
      ver = Shared.make (name ^ ".ver") 0;
      seqs = Hashtbl.create 8;
      max_attempts = 0;
      propose = Op.local (name ^ ".propose");
    }
  in
  (* Initialization-before-publication: objects may be built lazily from
     inside process code (e.g. fresh consensus cells mid-operation), and
     seeding a cell nobody else can reach yet is not a shared access in
     the model's sense. *)
  Runtime.instrumentation (fun () -> Shared.poke (val_cell t 0) (Some init));
  t

(* Scan from the version hint to the first undecided slot, replaying
   decided operations. The hint is monotone-safe: it is only ever
   written after the corresponding state-log entry (program order of the
   unique winner), and stale writes can only lower it. *)
let find_current t =
  let k0 = Shared.read t.ver in
  let s0 =
    match Shared.read (val_cell t k0) with
    | Some s -> s
    | None -> assert false (* ver is written only after vals.(ver) *)
  in
  let k = ref k0 and s = ref s0 in
  let scanning = ref true in
  while !scanning do
    match Uni_consensus.read (slot_cell t !k) with
    | None -> scanning := false
    | Some (_, _, op) ->
      let s', _ = t.apply !s op in
      s := s';
      incr k
  done;
  (!k, !s)

let next_seq t ~who =
  match Hashtbl.find_opt t.seqs who with
  | Some r ->
    incr r;
    !r
  | None ->
    Hashtbl.add t.seqs who (ref 0);
    0

let invoke t ~who op =
  let seq = next_seq t ~who in
  let rec attempt n =
    let k, s = find_current t in
    Eff.step t.propose;
    let winner_who, winner_seq, _winner_op =
      Uni_consensus.decide (slot_cell t k) (who, seq, op)
    in
    if winner_who = who && winner_seq = seq then begin
      let s', r = t.apply s op in
      Shared.write (val_cell t (k + 1)) (Some s');
      Shared.write t.ver (k + 1);
      if n > t.max_attempts then t.max_attempts <- n;
      r
    end
    else attempt (n + 1)
  in
  attempt 1

let read t =
  let _, s = find_current t in
  s

let peek_state t =
  let rec loop k s =
    match Uni_consensus.peek (slot_cell t k) with
    | None -> s
    | Some (_, _, op) -> loop (k + 1) (fst (t.apply s op))
  in
  loop 0 t.init

let ops_count t =
  let rec loop k =
    match Uni_consensus.peek (slot_cell t k) with None -> k | Some _ -> loop (k + 1)
  in
  loop 0

let max_attempts t = t.max_attempts
