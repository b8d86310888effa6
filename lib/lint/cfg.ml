open Hwf_sim

type loop_class = Static | Helping | Unbounded

let pp_class ppf c =
  Fmt.string ppf
    (match c with Static -> "static" | Helping -> "helping" | Unbounded -> "unbounded")

type loop = {
  l_pid : int;
  l_label : string;
  l_head : string;
  l_body : Op.t list;
  mutable l_class : loop_class;
}

type shape = {
  s_label : string;
  mutable s_max_stmts : int;
  mutable s_completed : int;
}

type t = {
  edges : (int * string * string) list;
  loops : loop list;
  shapes : shape list;
  truncated : (int * string) list;
  derived_c : int;
}

let key op = Fmt.str "%a" Op.pp op

(* Per-pid state while replaying one run's event stream. Each statement
   is rendered once: [p_last] is the previous statement's key (the edge
   source) and [p_seen] maps each key to its latest position in the
   invocation, so a back edge is found by one lookup instead of a walk
   back through the path. *)
type path = {
  p_label : string;
  mutable p_ops : Op.t list;  (* reversed *)
  mutable p_len : int;
  mutable p_last : string;
  p_seen : (string, int) Hashtbl.t;
}

(* The first [n] ops of a reversed path, in execution order. *)
let recent n ops =
  let rec go n acc = function
    | o :: rest when n > 0 -> go (n - 1) (o :: acc) rest
    | _ -> acc
  in
  go n [] ops

let build (store : Astore.t) (runs : Recorder.run list) =
  let edges = Hashtbl.create 256 in
  let loops : (int * string * string, loop) Hashtbl.t = Hashtbl.create 16 in
  let shapes : (string, shape) Hashtbl.t = Hashtbl.create 16 in
  let truncated = Hashtbl.create 8 in
  let shape label =
    match Hashtbl.find_opt shapes label with
    | Some s -> s
    | None ->
      let s = { s_label = label; s_max_stmts = 0; s_completed = 0 } in
      Hashtbl.add shapes label s;
      s
  in
  let edge pid a b = Hashtbl.replace edges (pid, a, b) () in
  let classify pid body =
    let reads_var_of_other op =
      match op with
      | Op.Read v | Op.Rmw { var = v; _ } -> Astore.written_by_other store ~var:v ~pid
      | Op.Write _ | Op.Local _ -> false
    in
    if List.exists reads_var_of_other body then Helping else Static
  in
  List.iter
    (fun (r : Recorder.run) ->
      let paths : (int, path) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          match ev with
          | Trace.Inv_begin { pid; label; _ } ->
            Hashtbl.replace paths pid
              {
                p_label = label;
                p_ops = [];
                p_len = 0;
                p_last = "entry:" ^ label;
                p_seen = Hashtbl.create 16;
              }
          | Trace.Stmt { pid; op; _ } -> (
            match Hashtbl.find_opt paths pid with
            | None -> ()  (* statement outside an invocation: engine forbids *)
            | Some p ->
              let k = key op in
              edge pid p.p_last k;
              (* Back edge: this op already executed in the current
                 invocation — the segment since its last occurrence is
                 one iteration of a loop body. Only the first body seen
                 per (pid, label, head) is kept, so later ones are never
                 built. *)
              (match Hashtbl.find_opt p.p_seen k with
              | None -> ()
              | Some j ->
                let lk = (pid, p.p_label, k) in
                if not (Hashtbl.mem loops lk) then begin
                  let body = recent (p.p_len - j) p.p_ops in
                  Hashtbl.add loops lk
                    {
                      l_pid = pid;
                      l_label = p.p_label;
                      l_head = k;
                      l_body = body;
                      l_class = classify pid body;
                    }
                end);
              Hashtbl.replace p.p_seen k p.p_len;
              p.p_ops <- op :: p.p_ops;
              p.p_len <- p.p_len + 1;
              p.p_last <- k)
          | Trace.Inv_end { pid; label; _ } -> (
            match Hashtbl.find_opt paths pid with
            | None -> ()
            | Some p ->
              edge pid
                (if p.p_len = 0 then "entry:" ^ label else p.p_last)
                ("exit:" ^ label);
              let s = shape label in
              s.s_max_stmts <- max s.s_max_stmts p.p_len;
              s.s_completed <- s.s_completed + 1;
              Hashtbl.remove paths pid)
          | Trace.Set_priority _ | Trace.Axiom2_gate _ -> ())
        r.events;
      (* Invocations still open when the statement budget ran out are
         the replay signature of an unbounded loop. *)
      match r.outcome with
      | Ok { Engine.stop = Engine.Step_limit | Engine.Decision_limit; _ } ->
        Hashtbl.iter
          (fun pid (p : path) ->
            Hashtbl.replace truncated (pid, p.p_label) ();
            Hashtbl.iter
              (fun (lp, ll, _) (l : loop) ->
                if lp = pid && ll = p.p_label then l.l_class <- Unbounded)
              loops)
          paths
      | Ok _ | Error _ -> ())
    runs;
  let edges =
    Hashtbl.fold (fun e () acc -> e :: acc) edges [] |> List.sort compare
  in
  let loops =
    Hashtbl.fold (fun _ l acc -> l :: acc) loops []
    |> List.sort (fun a b -> compare (a.l_pid, a.l_label, a.l_head) (b.l_pid, b.l_label, b.l_head))
  in
  let shapes =
    Hashtbl.fold (fun _ s acc -> s :: acc) shapes []
    |> List.sort (fun a b -> String.compare a.s_label b.s_label)
  in
  let truncated = Hashtbl.fold (fun k () acc -> k :: acc) truncated [] |> List.sort compare in
  let derived_c = List.fold_left (fun acc s -> max acc s.s_max_stmts) 0 shapes in
  { edges; loops; shapes; truncated; derived_c }
