let lanes ?(max_width = 200) trace =
  let config = Trace.config trace in
  let n = Config.n config in
  let total = Trace.statements trace in
  let width = min total max_width in
  let truncated = total > max_width in
  let rows = Array.init n (fun _ -> Bytes.make width ' ') in
  let mid = Array.make n false in
  let started = Array.make n (-1) in
  (* first stmt column of current invocation *)
  let col = ref 0 in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Inv_begin { pid; _ } ->
        mid.(pid) <- true;
        started.(pid) <- -1
      | Trace.Inv_end { pid; _ } ->
        mid.(pid) <- false;
        (* close the bracket at the last statement this process executed *)
        if started.(pid) >= 0 && !col - 1 < width && !col - 1 >= 0 then begin
          let last = !col - 1 in
          if last < width then Bytes.set rows.(pid) last ']'
        end
      | Trace.Set_priority _ | Trace.Axiom2_gate _ -> ()
      | Trace.Stmt { pid; _ } ->
        if !col < width then begin
          for q = 0 to n - 1 do
            if q <> pid && mid.(q) then Bytes.set rows.(q) !col '.'
          done;
          let ch = if started.(pid) < 0 then '[' else '=' in
          if started.(pid) < 0 then started.(pid) <- !col;
          Bytes.set rows.(pid) !col ch
        end;
        incr col)
    trace;
  let buf = Buffer.create 1024 in
  let label (p : Proc.t) = Printf.sprintf "%-12s" (Printf.sprintf "%s pri=%d" p.name p.priority) in
  (* Highest priority first, then by pid. *)
  let order =
    List.sort
      (fun a b ->
        let pa = config.procs.(a) and pb = config.procs.(b) in
        match compare pb.priority pa.priority with 0 -> compare a b | c -> c)
      (List.init n Fun.id)
  in
  List.iter
    (fun pid ->
      Buffer.add_string buf (label config.procs.(pid));
      Buffer.add_string buf (Bytes.to_string rows.(pid));
      if truncated then Buffer.add_string buf " ...";
      Buffer.add_char buf '\n')
    order;
  if config.processors = 1 && config.quantum > 0 then begin
    let ruler = Bytes.make width ' ' in
    let q = config.quantum in
    let i = ref q in
    while !i < width do
      Bytes.set ruler !i '|';
      i := !i + q
    done;
    Buffer.add_string buf (Printf.sprintf "%-12s" (Printf.sprintf "Q=%d" q));
    Buffer.add_string buf (Bytes.to_string ruler);
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let pp ppf trace = Fmt.string ppf (lanes trace)
