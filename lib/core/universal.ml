open Hwf_sim

type 'v factory = string -> pid:int -> 'v -> 'v

(* One list cell: the consensus deciding the k-th operation, plus a cache
   register mirroring the decision (every writer writes the same decided
   value, so the cache is race-free by value). *)
type 'v cell = { decide : pid:int -> 'v -> 'v; cache : 'v option Shared.t }

(* Private per-process view of the list, retained across invocations. *)
type ('s, 'r) cursor = {
  mutable pos : int;
  mutable state : 's;
  applied : (int * int, unit) Hashtbl.t;  (* (pid, seq) already replayed *)
  results : (int, 'r) Hashtbl.t;  (* own seq -> result *)
}

type ('s, 'op, 'r) t = {
  name : string;
  n : int;
  init : 's;
  apply : 's -> 'op -> 's * 'r;
  factory : (int * int * 'op) factory;
  announce : (int * 'op) option Shared.t array;  (* per pid: (seq, op) *)
  cells : (int * int * 'op) cell Vec.t;
  cursors : (int, ('s, 'r) cursor) Hashtbl.t;
  seqs : int array;  (* private per-process operation counters *)
}

let make ~name ~n ~init ~apply ~factory =
  {
    name;
    n;
    init;
    apply;
    factory;
    announce = Shared.array (name ^ ".announce") n (fun _ -> None);
    cells = Vec.create ();
    cursors = Hashtbl.create 8;
    seqs = Array.make n 0;
  }

let cell t k =
  while Vec.length t.cells <= k do
    let idx = Vec.length t.cells in
    let cname = Shared.subscript (t.name ^ ".cell") idx in
    let decide = t.factory cname in
    Vec.push t.cells
      { decide; cache = Shared.make (cname ^ ".cache") None }
  done;
  Vec.get t.cells k

let cursor t pid =
  match Hashtbl.find_opt t.cursors pid with
  | Some c -> c
  | None ->
    let c =
      { pos = 0; state = t.init; applied = Hashtbl.create 16; results = Hashtbl.create 4 }
    in
    Hashtbl.add t.cursors pid c;
    c

(* Replay decided cells into [cur]; stops at the first cell whose cache
   is still empty. Each step costs one read statement. *)
let replay t pid cur =
  let continue_ = ref true in
  while !continue_ do
    let c = cell t cur.pos in
    match Shared.read c.cache with
    | None -> continue_ := false
    | Some (who, seq, op) ->
      let state', r = t.apply cur.state op in
      cur.state <- state';
      Hashtbl.replace cur.applied (who, seq) ();
      if who = pid then Hashtbl.replace cur.results seq r;
      cur.pos <- cur.pos + 1
  done

let invoke t ~pid op =
  let cur = cursor t pid in
  let seq = t.seqs.(pid) in
  t.seqs.(pid) <- seq + 1;
  Shared.write t.announce.(pid) (Some (seq, op));
  let rec loop () =
    replay t pid cur;
    match Hashtbl.find_opt cur.results seq with
    | Some r -> r
    | None ->
      let k = cur.pos in
      let c = cell t k in
      (* Helping: at cell k, prefer the announced pending operation of
         process (k mod n). *)
      let helpee = k mod t.n in
      let proposal =
        match Shared.read t.announce.(helpee) with
        | Some (hseq, hop) when not (Hashtbl.mem cur.applied (helpee, hseq)) ->
          (helpee, hseq, hop)
        | Some _ | None -> (pid, seq, op)
      in
      let decision = c.decide ~pid proposal in
      Shared.write c.cache (Some decision);
      loop ()
  in
  loop ()

let peek_state t =
  let rec go k s =
    if k >= Vec.length t.cells then s
    else
      match Shared.peek (Vec.get t.cells k).cache with
      | None -> s
      | Some (_, _, op) -> go (k + 1) (fst (t.apply s op))
  in
  go 0 t.init

let ops_count t =
  let rec go k =
    if k >= Vec.length t.cells then k
    else
      match Shared.peek (Vec.get t.cells k).cache with
      | None -> k
      | Some _ -> go (k + 1)
  in
  go 0
