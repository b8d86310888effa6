type event =
  | Stmt of { idx : int; pid : Proc.pid; op : Op.t; inv : int; cost : int }
  | Inv_begin of { pid : Proc.pid; inv : int; label : string }
  | Inv_end of { pid : Proc.pid; inv : int; label : string }
  | Set_priority of { pid : Proc.pid; priority : int }
  | Axiom2_gate of { at : int; active : bool }

type stmt_sink = idx:int -> pid:Proc.pid -> op:Op.t -> inv:int -> cost:int -> unit

type sink = { on_stmt : stmt_sink; on_event : event -> unit }

(* Packed encoding: events live in one int array as variable-stride
   records, decoded lazily by the iterators. Each record starts with a
   header int carrying the tag (low 3 bits) and the pid (the rest);
   payloads are ints. Ops go into a run-length side table: a statement
   whose op equals the previous statement's op reuses its id, any other
   op is pushed as a new id (no hashing: most consecutive ops of a run
   differ, so an intern table pays a lookup per statement for little
   sharing). Labels, which are few and repeat, are
   interned through a hash table. Appending a statement is therefore a
   handful of int stores and at most one pointer push — no event
   record — which is what the engine's burst loop runs against. *)

let tag_stmt = 0
let tag_inv_begin = 1
let tag_inv_end = 2
let tag_set_priority = 3
let tag_gate = 4

let no_stmt ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ = ()
let no_event (_ : event) = ()

type t = {
  config : Config.t;
  mutable buf : int array;  (* packed events *)
  mutable pos : int;  (* ints used in [buf] *)
  mutable len : int;  (* number of events *)
  ops : Op.t Vec.t;  (* run-length op table, id = index; per run *)
  strs : string Vec.t;  (* label intern table *)
  str_ids : (string, int) Hashtbl.t;
  mutable stmts : int;
  mutable time : int;
  own : int array;  (* per-pid statement counts, maintained incrementally *)
  (* The installed sink, split per event class so the statement hot
     path passes fields instead of allocating an event record. Always
     callable: when nothing is installed both are no-ops, so the append
     path carries no option match. [observed] gates the (rare) non-Stmt
     appends that would otherwise allocate an event just to discard it. *)
  mutable on_stmt : stmt_sink;
  mutable on_event : event -> unit;
  mutable observed : bool;
}

let create config =
  {
    config;
    buf = [||];
    pos = 0;
    len = 0;
    ops = Vec.create ();
    strs = Vec.create ();
    str_ids = Hashtbl.create 16;
    stmts = 0;
    time = 0;
    own = Array.make (Config.n config) 0;
    on_stmt = no_stmt;
    on_event = no_event;
    observed = false;
  }

let clear_sink t =
  t.on_stmt <- no_stmt;
  t.on_event <- no_event;
  t.observed <- false

let reset t =
  (* The packed buffer, the op table's storage and the label table are
     kept — the point of [trace_buf]. Op ids restart at 0: the op table
     is per run, so it never grows past one run's statements. Label ids
     are internal to the encoding (never observable through the API), so
     letting them survive across runs is pure reuse. *)
  t.pos <- 0;
  Vec.clear t.ops;
  t.len <- 0;
  t.stmts <- 0;
  t.time <- 0;
  Array.fill t.own 0 (Array.length t.own) 0;
  clear_sink t

let config t = t.config

let set_sink t (s : sink) =
  t.on_stmt <- s.on_stmt;
  t.on_event <- s.on_event;
  t.observed <- true

let ensure t k =
  let need = t.pos + k in
  if need > Array.length t.buf then begin
    let cap = max 256 (max need (2 * Array.length t.buf)) in
    let buf = Array.make cap 0 in
    Array.blit t.buf 0 buf 0 t.pos;
    t.buf <- buf
  end

(* The id of [op] in the run-length table: the previous statement's id
   when the op repeats (physically, as a body's hoisted op does, or
   structurally), else a new id. *)
let op_id t op =
  let n = Vec.length t.ops in
  if n > 0 && (let o = Vec.get t.ops (n - 1) in o == op || Op.equal o op) then n - 1
  else begin
    Vec.push t.ops op;
    n
  end

let str_id t s =
  match Hashtbl.find_opt t.str_ids s with
  | Some id -> id
  | None ->
    let id = Vec.length t.strs in
    Vec.push t.strs s;
    Hashtbl.add t.str_ids s id;
    id

(* Append a statement without building the event record. [idx] is
   stored as given; the derived counters advance by one statement. *)
let push_stmt t ~idx ~pid ~op ~inv ~cost =
  t.stmts <- t.stmts + 1;
  t.time <- t.time + cost;
  t.own.(pid) <- t.own.(pid) + 1;
  ensure t 5;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_stmt lor (pid lsl 3);
  b.(p + 1) <- idx;
  b.(p + 2) <- op_id t op;
  b.(p + 3) <- inv;
  b.(p + 4) <- cost;
  t.pos <- p + 5;
  t.len <- t.len + 1;
  t.on_stmt ~idx ~pid ~op ~inv ~cost

(* The engine's hot path: [idx] is the running statement count. *)
let add_stmt t ~pid ~op ~inv ~cost = push_stmt t ~idx:t.stmts ~pid ~op ~inv ~cost

let add_inv_begin t ~pid ~inv ~label =
  ensure t 3;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_inv_begin lor (pid lsl 3);
  b.(p + 1) <- inv;
  b.(p + 2) <- str_id t label;
  t.pos <- p + 3;
  t.len <- t.len + 1;
  if t.observed then t.on_event (Inv_begin { pid; inv; label })

let add_inv_end t ~pid ~inv ~label =
  ensure t 3;
  let b = t.buf and p = t.pos in
  b.(p) <- tag_inv_end lor (pid lsl 3);
  b.(p + 1) <- inv;
  b.(p + 2) <- str_id t label;
  t.pos <- p + 3;
  t.len <- t.len + 1;
  if t.observed then t.on_event (Inv_end { pid; inv; label })

let add t e =
  match e with
  | Stmt { idx; pid; op; inv; cost } ->
    (* Honor the caller's [idx] (synthetic traces index freely). *)
    push_stmt t ~idx ~pid ~op ~inv ~cost
  | Inv_begin { pid; inv; label } -> add_inv_begin t ~pid ~inv ~label
  | Inv_end { pid; inv; label } -> add_inv_end t ~pid ~inv ~label
  | Set_priority { pid; priority } ->
    ensure t 2;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_set_priority lor (pid lsl 3);
    b.(p + 1) <- priority;
    t.pos <- p + 2;
    t.len <- t.len + 1;
    if t.observed then t.on_event e
  | Axiom2_gate { at; active } ->
    ensure t 3;
    let b = t.buf and p = t.pos in
    b.(p) <- tag_gate;
    b.(p + 1) <- at;
    b.(p + 2) <- (if active then 1 else 0);
    t.pos <- p + 3;
    t.len <- t.len + 1;
    if t.observed then t.on_event e

(* Sequential lazy decode: each record is rebuilt as an [event] only
   when a consumer walks the trace. *)
let iter f t =
  let b = t.buf in
  let p = ref 0 in
  while !p < t.pos do
    let h = b.(!p) in
    let tag = h land 7 and pid = h lsr 3 in
    if tag = tag_stmt then begin
      f
        (Stmt
           {
             idx = b.(!p + 1);
             pid;
             op = Vec.get t.ops b.(!p + 2);
             inv = b.(!p + 3);
             cost = b.(!p + 4);
           });
      p := !p + 5
    end
    else if tag = tag_inv_begin then begin
      f (Inv_begin { pid; inv = b.(!p + 1); label = Vec.get t.strs b.(!p + 2) });
      p := !p + 3
    end
    else if tag = tag_inv_end then begin
      f (Inv_end { pid; inv = b.(!p + 1); label = Vec.get t.strs b.(!p + 2) });
      p := !p + 3
    end
    else if tag = tag_set_priority then begin
      f (Set_priority { pid; priority = b.(!p + 1) });
      p := !p + 2
    end
    else begin
      f (Axiom2_gate { at = b.(!p + 1); active = b.(!p + 2) = 1 });
      p := !p + 3
    end
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let events t =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc) t;
  List.rev !acc

let length t = t.len

let statements t = t.stmts

let time t = t.time

let own_statements t pid =
  if pid < 0 || pid >= Array.length t.own then invalid_arg "Trace.own_statements";
  t.own.(pid)

let pp_event ppf = function
  | Stmt { idx; pid; op; inv; cost } ->
    Fmt.pf ppf "%4d  %a.%d  %a%s" idx Proc.pp_pid pid inv Op.pp op
      (if cost = 1 then "" else Printf.sprintf " (cost %d)" cost)
  | Inv_begin { pid; inv; label } ->
    Fmt.pf ppf "      %a.%d  BEGIN %s" Proc.pp_pid pid inv label
  | Inv_end { pid; inv; label } ->
    Fmt.pf ppf "      %a.%d  END %s" Proc.pp_pid pid inv label
  | Set_priority { pid; priority } ->
    Fmt.pf ppf "      %a  PRIORITY := %d" Proc.pp_pid pid priority
  | Axiom2_gate { at; active } ->
    Fmt.pf ppf "%4d  AXIOM 2 %s" at (if active then "RESUMED" else "SUSPENDED")

let pp ppf t =
  let first = ref true in
  Fmt.pf ppf "@[<v>";
  iter
    (fun e ->
      if !first then first := false else Fmt.pf ppf "@,";
      pp_event ppf e)
    t;
  Fmt.pf ppf "@]"
