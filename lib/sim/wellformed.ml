type violation = {
  at : int;
  pid : Proc.pid;
  axiom : [ `Priority | `Quantum | `Burst ];
  blame : Proc.pid;
}

let pp_violation ppf v =
  Fmt.pf ppf "@[stmt %d: %a violated %s of %a@]" v.at Proc.pp_pid v.pid
    (match v.axiom with
    | `Priority -> "Axiom 1 (priority)"
    | `Quantum -> "Axiom 2 (quantum)"
    | `Burst -> "Axiom 2 (burst)")
    Proc.pp_pid v.blame

type pst = {
  mutable mid_inv : bool;
  mutable pending : bool;
  mutable guarantee : int;
}

let check trace =
  let config = Trace.config trace in
  let n = Config.n config in
  let st = Array.init n (fun _ -> { mid_inv = false; pending = false; guarantee = 0 }) in
  let violations = ref [] in
  let emit v = violations := v :: !violations in
  let proc pid = config.procs.(pid) in
  (* Current priorities; updated by Set_priority events (Sec. 5). *)
  let priority = Array.map (fun (p : Proc.t) -> p.priority) config.procs in
  (* Axiom 2 enforcement gate; toggled by fault-injected Axiom2_gate
     events. While off, quantum violations are the injected fault, not an
     engine bug. Guarantees granted inside an off-window are void at
     re-enable (mirroring the engine); pending flags survive, so a
     preempted process earns fresh protection at its next resume. *)
  let gate = ref true in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Inv_begin { pid; _ } ->
        let s = st.(pid) in
        s.mid_inv <- true;
        s.pending <- false;
        s.guarantee <- 0
      | Trace.Inv_end { pid; _ } ->
        let s = st.(pid) in
        s.mid_inv <- false;
        s.pending <- false;
        s.guarantee <- 0
      | Trace.Axiom2_gate { active; _ } ->
        gate := active;
        if active then Array.iter (fun s -> s.guarantee <- 0) st
      | Trace.Set_priority { pid; priority = p } -> priority.(pid) <- p
      | Trace.Stmt { idx; pid; cost; _ } ->
        let p = proc pid in
        let s = st.(pid) in
        (* Axiom 1: no ready (mid-invocation) higher-priority process on
           the same processor. *)
        for q = 0 to n - 1 do
          let pq = proc q in
          if
            q <> pid && pq.processor = p.processor
            && priority.(q) > priority.(pid)
            && st.(q).mid_inv
          then emit { at = idx; pid; axiom = `Priority; blame = q }
        done;
        (* Axiom 2: no equal-priority process under an active quantum
           guarantee on the same processor. *)
        if config.axiom2 && !gate then
          for q = 0 to n - 1 do
            let pq = proc q in
            if
              q <> pid && pq.processor = p.processor
              && priority.(q) = priority.(pid)
              && st.(q).guarantee > 0
            then emit { at = idx; pid; axiom = `Quantum; blame = q }
          done;
        if s.pending then begin
          s.pending <- false;
          s.guarantee <- config.quantum
        end;
        s.guarantee <- max 0 (s.guarantee - cost);
        for q = 0 to n - 1 do
          if q <> pid && (proc q).processor = p.processor && st.(q).mid_inv then
            st.(q).pending <- true
        done)
    trace;
  List.rev !violations

let is_well_formed trace = check trace = []

(* Axiom-2 burst intervals, from the guarantee holder's perspective: a
   process that resumes after a preemption is owed a burst of [Q]
   statements' worth of same-priority exclusivity. [check] flags the
   same executions statement-by-statement from the perpetrator's side;
   this two-pass interval reconstruction is an independent second
   opinion, so a bookkeeping bug in either implementation surfaces as a
   disagreement (the lint suite cross-validates them). *)
type burst = {
  holder : Proc.pid;
  processor : int;
  level : int;  (* the holder's priority for the whole burst *)
  lo : int;  (* first protected statement index *)
  mutable hi : int;  (* first index past the burst (exclusive) *)
}

let axiom2_bursts trace =
  let config = Trace.config trace in
  let n = Config.n config in
  if not config.axiom2 then []
  else begin
    let proc pid = config.procs.(pid) in
    let priority = Array.map (fun (p : Proc.t) -> p.priority) config.procs in
    let mid_inv = Array.make n false in
    let pending = Array.make n false in
    let budget = Array.make n 0 in
    let open_burst : burst option array = Array.make n None in
    let bursts = ref [] in
    let stmts = ref 0 in
    let close pid hi =
      match open_burst.(pid) with
      | None -> ()
      | Some b ->
        b.hi <- hi;
        if b.hi > b.lo then bursts := b :: !bursts;
        open_burst.(pid) <- None
    in
    (* Pass 1: reconstruct every burst interval. *)
    Trace.iter
      (fun ev ->
        match ev with
        | Trace.Inv_begin { pid; _ } | Trace.Inv_end { pid; _ } ->
          mid_inv.(pid) <- (match ev with Trace.Inv_begin _ -> true | _ -> false);
          pending.(pid) <- false;
          budget.(pid) <- 0;
          close pid !stmts
        | Trace.Set_priority { pid; priority = p } -> priority.(pid) <- p
        | Trace.Axiom2_gate { active; _ } ->
          (* Guarantees granted while enforcement was off are void at
             re-enable (see [check]); bursts close with them. *)
          if active then
            for pid = 0 to n - 1 do
              budget.(pid) <- 0;
              close pid !stmts
            done
        | Trace.Stmt { idx; pid; cost; _ } ->
          stmts := idx + 1;
          if pending.(pid) then begin
            pending.(pid) <- false;
            budget.(pid) <- config.quantum;
            close pid idx;
            if config.quantum > cost then
              open_burst.(pid) <-
                Some
                  {
                    holder = pid;
                    processor = (proc pid).processor;
                    level = priority.(pid);
                    lo = idx + 1;
                    hi = max_int;
                  }
          end;
          budget.(pid) <- max 0 (budget.(pid) - cost);
          if budget.(pid) = 0 then close pid (idx + 1);
          for q = 0 to n - 1 do
            if q <> pid && (proc q).processor = (proc pid).processor && mid_inv.(q)
            then pending.(q) <- true
          done)
      trace;
    for pid = 0 to n - 1 do
      close pid max_int
    done;
    let bursts = List.rev !bursts in
    (* Pass 2: any same-priority statement inside another process's
       burst is a preemption of a guarantee holder mid-burst. *)
    let violations = ref [] in
    let priority = Array.map (fun (p : Proc.t) -> p.priority) config.procs in
    let gate = ref true in
    Trace.iter
      (fun ev ->
        match ev with
        | Trace.Set_priority { pid; priority = p } -> priority.(pid) <- p
        | Trace.Axiom2_gate { active; _ } -> gate := active
        | Trace.Inv_begin _ | Trace.Inv_end _ -> ()
        | Trace.Stmt { idx; pid; _ } ->
          if !gate then
            List.iter
              (fun b ->
                if
                  b.holder <> pid
                  && b.processor = (proc pid).processor
                  && b.level = priority.(pid)
                  && b.lo <= idx && idx < b.hi
                then
                  violations :=
                    { at = idx; pid; axiom = `Burst; blame = b.holder } :: !violations)
              bursts)
      trace;
    List.rev !violations
  end
