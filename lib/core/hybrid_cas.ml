open Hwf_sim

(* ptrtype: identifies a list cell. *)
type ptr = { id : int; tag : int }

(* hdtype: stored in one word; (id, tag) identify a cell, [last] is the
   pid of the last process to claim this Hd variable. *)
type hd = { hid : int; htag : int; last : int }

type 'a cell = { value : 'a Shared.t; nxt : ptr Uni_consensus.t Shared.t }

(* Private variables, retained across invocations (Fig. 5 caption). *)
type pstate = {
  mutable j : int;  (* 0-based cursor into A's rows *)
  mutable lasttag : int;
  reads : int Queue.t;  (* last 2N tags read *)
  selected : int Queue.t;  (* last 2N tags selected *)
  (* access failures observed by the operation in progress *)
  mutable op_diff : int;
  mutable op_same : int;
}

type stats = {
  af_diff : int;
  af_same : int;
  scan_failures : int;
  worst_af_diff : int;
  worst_af_same : int;
  ops : int;
  appends : int;
}

type 'a t = {
  name : string;
  n : int;  (* N, real processes *)
  v : int;  (* V, priority levels *)
  priority : int -> int;  (* pid (or pseudo-id N) -> level *)
  cells : 'a cell array array;  (* (N+1) x (4N+2); row N = initial cell owner *)
  hd : hd Q_cas.t array;  (* per level *)
  a : int Shared.t array array;  (* 2N x V tag-feedback matrix *)
  seen : 'a Shared.t array;  (* per level *)
  pstates : (int, pstate) Hashtbl.t;
  mutable appends : int;  (* harness statistic *)
  (* access-failure tap (Lemma 2): totals plus the worst single
     operation, updated as operations complete. Plain bookkeeping, not
     statements. *)
  mutable af_diff : int;
  mutable af_same : int;
  mutable scan_failures : int;
  mutable worst_af_diff : int;
  mutable worst_af_same : int;
  mutable ops : int;
  line : Op.t array;  (* [line.(l)]: the local statement of Fig. 5 line [l] *)
  fb_line : Op.t array;  (* [fb_line.(l)]: line [l] of Feedback *)
}

(* [".l"] for every line [l] of Fig. 5, and [".fb.l"] for Feedback's,
   shared by all objects. *)
let line_suffix = Array.init 56 (fun l -> "." ^ string_of_int l)
let fb_suffix = Array.init 8 (fun l -> ".fb." ^ string_of_int l)

let tag_space n = (4 * n) + 2

let make ~config ~name ~init =
  let n = Config.n config in
  let v = config.Config.levels in
  let priority pid =
    if pid = n then 1 else config.Config.procs.(pid).Proc.priority
  in
  let cells =
    Array.init (n + 1) (fun owner ->
        Array.init (tag_space n) (fun tag ->
            let cell = Shared.subscript2 (name ^ ".Cell") owner tag in
            let nxt = cell ^ ".nxt" in
            {
              value = Shared.make (cell ^ ".val") init;
              nxt = Shared.make nxt (Uni_consensus.make nxt);
            }))
  in
  (* "We assume the list is initialized as if some process had previously
     performed a successful C&S in isolation": a pseudo-process (id N,
     priority 1) owns the initial cell (N, 0); every Hd points at it. *)
  let initial = { hid = n; htag = 0; last = n } in
  let hd =
    Array.init v (fun i -> Q_cas.make (Shared.subscript (name ^ ".Hd") (i + 1)) initial)
  in
  let a =
    Array.init (2 * n) (fun q ->
        Array.init v (fun i ->
            Shared.make (Shared.subscript2 (name ^ ".A") (q + 1) (i + 1)) 0))
  in
  let seen =
    Array.init v (fun i -> Shared.make (Shared.subscript (name ^ ".Seen") (i + 1)) init)
  in
  {
    name;
    n;
    v;
    priority;
    cells;
    hd;
    a;
    seen;
    pstates = Hashtbl.create 8;
    appends = 0;
    af_diff = 0;
    af_same = 0;
    scan_failures = 0;
    worst_af_diff = 0;
    worst_af_same = 0;
    ops = 0;
    line = Array.map (fun suffix -> Op.local (name ^ suffix)) line_suffix;
    fb_line = Array.map (fun suffix -> Op.local (name ^ suffix)) fb_suffix;
  }

let pstate t pid =
  match Hashtbl.find_opt t.pstates pid with
  | Some s -> s
  | None ->
    let s =
      {
        j = 0;
        lasttag = -1;
        reads = Queue.create ();
        selected = Queue.create ();
        op_diff = 0;
        op_same = 0;
      }
    in
    Hashtbl.add t.pstates pid s;
    s

let begin_op st =
  st.op_diff <- 0;
  st.op_same <- 0

let end_op t st =
  t.ops <- t.ops + 1;
  if st.op_diff > t.worst_af_diff then t.worst_af_diff <- st.op_diff;
  if st.op_same > t.worst_af_same then t.worst_af_same <- st.op_same

let cell_of_hd t (h : hd) = t.cells.(h.hid).(h.htag)

(* Fig. 5, procedure Feedback(q, i, cmp, var hd). Returns false iff the
   caller should abort because a higher-priority Hd changed (line 5). *)
let feedback t ~q ~i ~(cmp : hd) ~(h : hd ref) =
  let caller = if q < t.n then q else q - t.n in
  let pri = t.priority caller in
  Eff.step t.fb_line.(1);
  if i < pri then true (* line 1: no feedback below own level *)
  else begin
    Shared.write t.a.(q).(i - 1) !h.htag (* line 2 *);
    let tmp = Q_cas.read t.hd.(i - 1) (* line 3 *) in
    Eff.step t.fb_line.(4);
    if (cmp.hid, cmp.htag) <> (tmp.hid, tmp.htag) then begin
      let st = pstate t caller in
      if i > pri then begin
        (* line 5: higher-priority preemption *)
        st.op_diff <- st.op_diff + 1;
        t.af_diff <- t.af_diff + 1;
        false
      end
      else begin
        (* i = pri; lines 6-7 (protected by the quantum) *)
        st.op_same <- st.op_same + 1;
        t.af_same <- t.af_same + 1;
        Shared.write t.a.(q).(i - 1) tmp.htag (* line 6 *);
        Eff.step t.fb_line.(7);
        h := tmp;
        true
      end
    end
    else true
  end

(* Lines 8-10: constant-time tag selection per [Anderson & Moir '95]. *)
let select_tag t st ~pri =
  let read_tag = Shared.read t.a.(st.j).(pri - 1) (* line 8 *) in
  Queue.add read_tag st.reads;
  if Queue.length st.reads > 2 * t.n then ignore (Queue.pop st.reads);
  Eff.step t.line.(9);
  st.j <- (st.j + 1) mod (2 * t.n) (* line 9 *);
  Eff.step t.line.(10);
  let excluded tag =
    tag = st.lasttag
    || Queue.fold (fun acc x -> acc || x = tag) false st.reads
    || Queue.fold (fun acc x -> acc || x = tag) false st.selected
  in
  let rec pick tag = if excluded tag then pick (tag + 1) else tag in
  let tag = pick 0 in
  assert (tag < tag_space t.n);
  Queue.add tag st.selected;
  if Queue.length st.selected > 2 * t.n then ignore (Queue.pop st.selected);
  tag

(* Lines 32-36 and 39-43: install [target] into Hd[pri]. Returns false
   iff the cell being installed already has a successor (lines 35/42). *)
let update_hd t ~pid ~pri (target : hd) =
  let rec outer () =
    let rec inner () =
      let tmp = Q_cas.read t.hd.(pri - 1) (* lines 33/40 *) in
      let claimed = { tmp with last = pid } in
      if Q_cas.cas t.hd.(pri - 1) ~who:pid ~expected:tmp ~desired:claimed
         (* lines 34/41 *)
      then claimed
      else inner ()
    in
    let claimed = inner () in
    let nxt_obj = Shared.read (cell_of_hd t target).nxt in
    match Uni_consensus.read nxt_obj (* lines 35/42 *) with
    | Some _ -> false
    | None ->
      if Q_cas.cas t.hd.(pri - 1) ~who:pid ~expected:claimed ~desired:target
         (* lines 36/43 *)
      then true
      else outer ()
  in
  outer ()

(* Fig. 5, procedure Apply(old, new, hd) — lines 26-45. [mytag] is the
   tag selected at line 10 for this operation's own cell. *)
let apply t ~pid ~pri ~old ~new_ ~mytag (h : hd) =
  let st = pstate t pid in
  let v = Shared.read (cell_of_hd t h).value (* line 26 *) in
  if v <> old then false
  else begin
    Eff.step t.line.(27);
    if old = new_ then true (* line 27: trivial C&S *)
    else begin
      (* lines 28-29: help lower-priority reads *)
      for i = 1 to pri - 1 do
        Shared.write t.seen.(i - 1) old
      done;
      Eff.step t.line.(30);
      let install_first = t.priority h.hid <= pri (* line 30 *) in
      let proceed =
        if install_first then begin
          Eff.step t.line.(31);
          update_hd t ~pid ~pri { h with last = pid } (* lines 31-36 *)
        end
        else true
      in
      if not proceed then false (* line 35: a successor appeared *)
      else begin
        (* line 37: consensus on the head cell's nxt pointer *)
        let nxt_obj = Shared.read (cell_of_hd t h).nxt in
        let mine = { id = pid; tag = mytag } in
        let won = Uni_consensus.decide nxt_obj mine in
        if won = mine then begin
          Eff.step t.line.(38);
          st.lasttag <- mytag;
          t.appends <- t.appends + 1;
          let my_hd = { hid = pid; htag = mytag; last = pid } in
          ignore (update_hd t ~pid ~pri my_hd) (* lines 39-43 *);
          true (* line 44 (and the line-42 early exit; see .mli notes) *)
        end
        else false (* line 45 *)
      end
    end
  end

(* Fig. 5, procedure C&S(old, new) — lines 8-25. *)
let cas t ~pid ~expected ~desired =
  let pri = t.priority pid in
  let st = pstate t pid in
  begin_op st;
  let mytag = select_tag t st ~pri (* lines 8-10 *) in
  let my_cell = t.cells.(pid).(mytag) in
  Shared.write my_cell.value desired (* line 11 *);
  Shared.write my_cell.nxt
    (Uni_consensus.make (Shared.subscript2 (t.name ^ ".Cell") pid mytag ^ ".nxt'"))
  (* line 12 *);
  (* lines 13-24: scan the Hd variables for the list head *)
  let result = ref None in
  let i = ref 1 in
  while !result = None && !i <= t.v do
    let h = ref (Q_cas.read t.hd.(!i - 1)) (* line 14 *) in
    Eff.step t.line.(15);
    if !i <= pri || t.priority !h.hid = !i (* line 15 *) then begin
      if not (feedback t ~q:pid ~i:!i ~cmp:!h ~h) (* line 16 *) then
        result := Some false
      else begin
        let nxt_obj = Shared.read (cell_of_hd t !h).nxt in
        match Uni_consensus.read nxt_obj (* lines 17/20 *) with
        | None -> result := Some (apply t ~pid ~pri ~old:expected ~new_:desired ~mytag !h)
          (* line 18 *)
        | Some np ->
          Eff.step t.line.(19);
          if !i <= pri (* line 19 *) then begin
            let next = ref { hid = np.id; htag = np.tag; last = np.id } in
            Eff.step t.line.(21);
            if t.priority np.id = !i (* line 21 *) then begin
              ignore (feedback t ~q:(pid + t.n) ~i:!i ~cmp:!h ~h:next) (* line 22 *);
              let nxt2 = Shared.read (cell_of_hd t !next).nxt in
              match Uni_consensus.read nxt2 (* line 23 *) with
              | None ->
                result :=
                  Some (apply t ~pid ~pri ~old:expected ~new_:desired ~mytag !next)
                (* line 24 *)
              | Some _ -> ()
            end
          end
      end
    end;
    incr i
  done;
  let res =
    match !result with
    | Some b -> b
    | None ->
      Eff.step t.line.(25);
      t.scan_failures <- t.scan_failures + 1;
      false (* line 25: preempted throughout the scan; some C&S succeeded *)
  in
  end_op t st;
  res

(* Fig. 5, procedure Read() — lines 46-62. *)
let read t ~pid =
  let pri = t.priority pid in
  let st = pstate t pid in
  begin_op st;
  (* line 46: levels in order 1..V, with the own level visited last *)
  let order = List.filter (fun i -> i <> pri) (List.init t.v (fun i -> i + 1)) @ [ pri ] in
  let rhd = Array.make t.v { hid = t.n; htag = 0; last = t.n } in
  let next = ref None in
  let result = ref None in
  List.iter
    (fun i ->
      if !result = None then begin
        rhd.(i - 1) <- Q_cas.read t.hd.(i - 1) (* line 47 *);
        Eff.step t.line.(48);
        if i <= pri || t.priority rhd.(i - 1).hid = i (* line 48 *) then begin
          let href = ref rhd.(i - 1) in
          if not (feedback t ~q:pid ~i ~cmp:rhd.(i - 1) ~h:href) (* line 49 *) then
            result := Some (Shared.read t.seen.(pri - 1)) (* line 50 *)
          else begin
            rhd.(i - 1) <- !href;
            let nxt_obj = Shared.read (cell_of_hd t rhd.(i - 1)).nxt in
            match Uni_consensus.read nxt_obj (* lines 51/54 *) with
            | None ->
              result := Some (Shared.read (cell_of_hd t rhd.(i - 1)).value)
              (* line 52 *)
            | Some np ->
              Eff.step t.line.(53);
              if i <= pri (* line 53 *) then begin
                let nx = { hid = np.id; htag = np.tag; last = np.id } in
                next := Some nx;
                Eff.step t.line.(55);
                if t.priority np.id = i (* line 55 *) then begin
                  let nref = ref nx in
                  ignore (feedback t ~q:(pid + t.n) ~i ~cmp:rhd.(i - 1) ~h:nref)
                  (* line 56 *);
                  next := Some !nref;
                  let nxt2 = Shared.read (cell_of_hd t !nref).nxt in
                  match Uni_consensus.read nxt2 (* line 57 *) with
                  | None ->
                    result := Some (Shared.read (cell_of_hd t !nref).value)
                    (* line 58 *)
                  | Some _ -> ()
                end
              end
          end
        end
      end)
    order;
  let res =
    match !result with
    | Some value -> value
    | None -> (
      (* lines 59-61: some same- or higher-priority Hd must have changed *)
      let changed = ref false in
      for i = pri + 1 to t.v do
        let cur = Q_cas.read t.hd.(i - 1) (* line 60 *) in
        if cur <> rhd.(i - 1) then changed := true
      done;
      if !changed then Shared.read t.seen.(pri - 1) (* line 61 *)
      else
        (* line 62: it was a same-priority change *)
        match !next with
        | Some nx -> Shared.read (cell_of_hd t nx).value
        | None -> assert false (* the own-level iteration always sets [next] *))
  in
  end_op t st;
  res

let appends t = t.appends

let stats t =
  {
    af_diff = t.af_diff;
    af_same = t.af_same;
    scan_failures = t.scan_failures;
    worst_af_diff = t.worst_af_diff;
    worst_af_same = t.worst_af_same;
    ops = t.ops;
    appends = t.appends;
  }
