open Hwf_sim

type inv_stat = {
  pid : Proc.pid;
  inv : int;
  label : string;
  statements : int;
  time : int;
  same_preemptions : int;
  higher_preemptions : int;
  completed : bool;
}

type pid_stat = {
  statements : int;
  time : int;
  invocations : int;
  completed : int;
  same_preemptions : int;
  higher_preemptions : int;
  priority_changes : int;
  guarantee_grants : int;
  protected_statements : int;
}

type bound_row = { name : string; measured : int; bound : int option }

type t = {
  n : int;
  quantum : int;
  statements : int;
  time : int;
  switches : int;
  per_pid : pid_stat array;
  invocations : inv_stat list;
  bounds : bound_row list;
  harness : (string * int) list;
}

let margin r = match r.bound with None -> None | Some b -> Some (b - r.measured)

let with_bounds t bounds = { t with bounds = t.bounds @ bounds }

let with_harness t kvs = { t with harness = t.harness @ kvs }

(* ---- incremental collection ---- *)

(* Per-pid shadow of the engine's scheduling state, advanced one event
   at a time. A preemption is a maximal gap between two statements of
   an open invocation, classified by the strongest foreign priority
   that ran in the gap (the naive broadcast in test/test_obs.ml is its
   differential oracle); the quantum accounting mirrors the
   engine (a pending process is granted [Q] protected statements when it
   resumes; [Inv_end] and an Axiom-2 re-activation reset guarantees). *)
type acc = {
  mutable priority : int;
  mutable open_ : bool;
  mutable label : string;
  mutable inv : int;
  mutable inv_statements : int;
  mutable inv_time : int;
  mutable inv_same : int;
  mutable inv_higher : int;
  mutable gap : [ `None | `Same | `Higher ];
      (* explicitly flushed classification (only a Set_priority mid-gap
         forces a flush); the live gap is carried by [synced] below *)
  mutable pending : bool;  (* flushed preemption flag, same deal *)
  mutable synced : int;
      (* processor statement count when this pid's window last reset
         (own statement, invocation close, Inv_begin, priority change);
         statements on the processor past it are foreign to this pid *)
  mutable guarantee : int;
  (* running per-pid totals *)
  mutable statements : int;
  mutable time : int;
  mutable invocations : int;
  mutable completed : int;
  mutable same : int;
  mutable higher : int;
  mutable priority_changes : int;
  mutable grants : int;
  mutable protected_ : int;
}

type collector = {
  config : Config.t;
  accs : acc array;
  mutable c_statements : int;
  mutable c_time : int;
  mutable c_switches : int;
  last_on : int array;
      (* last pid to execute on each processor: a switch is a change of
         running process on one processor, so cross-processor
         interleaving must not count *)
  pcount : int array;  (* statements executed per processor *)
  last_at : int array array;
      (* [last_at.(pr).(v)]: the [pcount] stamp of the most recent
         statement executed on processor [pr] at priority [v] — how a
         pid resolves its preemption class in O(levels) at its own next
         statement instead of an O(N) peer broadcast per statement *)
  mutable closed : inv_stat list;  (* reverse close order *)
}

let collector config =
  let n = Config.n config in
  {
    config;
    accs =
      Array.init n (fun pid ->
          {
            priority = config.Config.procs.(pid).Proc.priority;
            open_ = false;
            label = "";
            inv = 0;
            inv_statements = 0;
            inv_time = 0;
            inv_same = 0;
            inv_higher = 0;
            gap = `None;
            pending = false;
            synced = 0;
            guarantee = 0;
            statements = 0;
            time = 0;
            invocations = 0;
            completed = 0;
            same = 0;
            higher = 0;
            priority_changes = 0;
            grants = 0;
            protected_ = 0;
          });
    c_statements = 0;
    c_time = 0;
    c_switches = 0;
    last_on = Array.make config.Config.processors (-1);
    pcount = Array.make config.Config.processors 0;
    last_at =
      Array.init config.Config.processors (fun _ ->
          Array.make (config.Config.levels + 1) 0);
    closed = [];
  }

(* The live (unflushed) window state for [pid] on its processor [pr]:
   any foreign statement since the window reset, and whether one ran at
   a strictly higher priority than [pid]'s current one. *)
let window_any c pr (a : acc) = c.pcount.(pr) > a.synced

let window_higher c pr (a : acc) =
  let la = c.last_at.(pr) in
  let levels = Array.length la - 1 in
  let rec go v = v <= levels && (la.(v) > a.synced || go (v + 1)) in
  go (a.priority + 1)

let combine_gap g1 g2 =
  match (g1, g2) with
  | `Higher, _ | _, `Higher -> `Higher
  | `Same, _ | _, `Same -> `Same
  | `None, `None -> `None

let close_inv c pid completed =
  let a = c.accs.(pid) in
  if a.open_ then begin
    c.closed <-
      {
        pid;
        inv = a.inv;
        label = a.label;
        statements = a.inv_statements;
        time = a.inv_time;
        same_preemptions = a.inv_same;
        higher_preemptions = a.inv_higher;
        completed;
      }
      :: c.closed;
    if completed then a.completed <- a.completed + 1;
    a.open_ <- false;
    a.pending <- false;
    a.synced <- c.pcount.(c.config.Config.procs.(pid).Proc.processor);
    a.guarantee <- 0
  end

(* Statement path, shared by {!feed} and {!sink}: takes the fields
   directly so the engine's hot path never has to build a [Trace.Stmt]
   record just to have it destructured here. *)
let feed_stmt c ~idx:_ ~pid ~op:_ ~inv:_ ~cost =
  let config = c.config in
  let pr = config.Config.procs.(pid).Proc.processor in
  if c.last_on.(pr) >= 0 && c.last_on.(pr) <> pid then
    c.c_switches <- c.c_switches + 1;
  c.last_on.(pr) <- pid;
  c.c_statements <- c.c_statements + 1;
  c.c_time <- c.c_time + cost;
  let a = c.accs.(pid) in
  (* Resolve this pid's window: foreign statements on its processor
     since its last reset. (A preemption flag can only be raised while
     the invocation is open, and closing resets the window, so
     [a.open_] here certifies the whole window ran open.) *)
  let foreign = window_any c pr a in
  if a.pending || (a.open_ && foreign) then begin
    a.pending <- false;
    a.grants <- a.grants + 1;
    a.guarantee <- config.Config.quantum
  end;
  if a.guarantee > 0 then a.protected_ <- a.protected_ + 1;
  a.guarantee <- max 0 (a.guarantee - cost);
  a.statements <- a.statements + 1;
  a.time <- a.time + cost;
  if a.open_ then begin
    let gap =
      if a.inv_statements = 0 then `None
        (* a gap is a hole between two statements of one invocation;
           foreign statements before the first are not preemptions *)
      else
        combine_gap a.gap
          (if not foreign then `None
           else if window_higher c pr a then `Higher
           else `Same)
    in
    (match gap with
    | `None -> ()
    | `Same ->
      a.inv_same <- a.inv_same + 1;
      a.same <- a.same + 1
    | `Higher ->
      a.inv_higher <- a.inv_higher + 1;
      a.higher <- a.higher + 1);
    a.gap <- `None;
    a.inv_statements <- a.inv_statements + 1;
    a.inv_time <- a.inv_time + cost
  end;
  (* Publish this statement to the processor's board and reset our own
     window past it: O(1) per statement where the broadcast loop was
     O(N) in same-processor peers. *)
  let stamp = c.pcount.(pr) + 1 in
  c.pcount.(pr) <- stamp;
  let la = c.last_at.(pr) in
  if a.priority >= 0 && a.priority < Array.length la then la.(a.priority) <- stamp;
  a.synced <- stamp

let feed c (e : Trace.event) =
  match e with
  | Trace.Inv_begin { pid; inv; label } ->
    let a = c.accs.(pid) in
    a.open_ <- true;
    a.label <- label;
    a.inv <- inv;
    a.inv_statements <- 0;
    a.inv_time <- 0;
    a.inv_same <- 0;
    a.inv_higher <- 0;
    a.gap <- `None;
    a.synced <- c.pcount.(c.config.Config.procs.(pid).Proc.processor);
    a.invocations <- a.invocations + 1
  | Trace.Inv_end { pid; _ } -> close_inv c pid true
  | Trace.Set_priority { pid; priority } ->
    let a = c.accs.(pid) in
    (* The window is classified against the priority the pid held while
       the foreign statements ran: flush it under the old priority
       before switching (rare — one flush per priority change). *)
    let pr = c.config.Config.procs.(pid).Proc.processor in
    if a.open_ && window_any c pr a then begin
      a.pending <- true;
      if a.inv_statements > 0 then
        a.gap <-
          combine_gap a.gap (if window_higher c pr a then `Higher else `Same)
    end;
    a.synced <- c.pcount.(pr);
    a.priority <- priority;
    a.priority_changes <- a.priority_changes + 1
  | Trace.Axiom2_gate { active; _ } ->
    (* Re-activation starts enforcement fresh (engine rule): stale
       guarantees are dropped. *)
    if active then Array.iter (fun a -> a.guarantee <- 0) c.accs
  | Trace.Stmt { idx; pid; op; inv; cost } -> feed_stmt c ~idx ~pid ~op ~inv ~cost

let sink c = { Trace.on_stmt = feed_stmt c; on_event = feed c }

let finish c =
  for pid = 0 to Array.length c.accs - 1 do
    close_inv c pid false
  done;
  {
    n = Array.length c.accs;
    quantum = c.config.Config.quantum;
    statements = c.c_statements;
    time = c.c_time;
    switches = c.c_switches;
    per_pid =
      Array.map
        (fun a ->
          {
            statements = a.statements;
            time = a.time;
            invocations = a.invocations;
            completed = a.completed;
            same_preemptions = a.same;
            higher_preemptions = a.higher;
            priority_changes = a.priority_changes;
            guarantee_grants = a.grants;
            protected_statements = a.protected_;
          })
        c.accs;
    invocations = List.rev c.closed;
    bounds = [];
    harness = [];
  }

let of_trace trace =
  let c = collector (Trace.config trace) in
  Trace.iter (feed c) trace;
  finish c

let quantum_utilization t pid =
  let s = t.per_pid.(pid) in
  if s.guarantee_grants = 0 || t.quantum = 0 then None
  else Some (float_of_int s.protected_statements /. float_of_int (s.guarantee_grants * t.quantum))

(* ---- rendering ---- *)

let pp_bound_row ppf r =
  match r.bound with
  | None -> Fmt.pf ppf "%-28s %8d %8s %8s" r.name r.measured "-" "-"
  | Some b -> Fmt.pf ppf "%-28s %8d %8d %8d" r.name r.measured b (b - r.measured)

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "statements: %d  time: %d  switches: %d  quantum: %d@," t.statements t.time
    t.switches t.quantum;
  Fmt.pf ppf "@,%-5s %6s %6s %5s %5s %5s %6s %6s %6s %6s %6s@," "pid" "stmts" "time"
    "invs" "done" "churn" "sameP" "highP" "grants" "prot" "util";
  Array.iteri
    (fun pid (s : pid_stat) ->
      Fmt.pf ppf "p%-4d %6d %6d %5d %5d %5d %6d %6d %6d %6d %6s@," (pid + 1) s.statements
        s.time s.invocations s.completed s.priority_changes s.same_preemptions
        s.higher_preemptions s.guarantee_grants s.protected_statements
        (match quantum_utilization t pid with
        | None -> "-"
        | Some u -> Printf.sprintf "%.2f" u))
    t.per_pid;
  (match t.invocations with
  | [] -> ()
  | invs ->
    let worst_stmts =
      List.fold_left (fun acc (i : inv_stat) -> max acc i.statements) 0 invs
    in
    let worst_time = List.fold_left (fun acc (i : inv_stat) -> max acc i.time) 0 invs in
    Fmt.pf ppf "@,invocations: %d (worst latency: %d statements, %d time units)@,"
      (List.length invs) worst_stmts worst_time);
  (match t.bounds with
  | [] -> ()
  | bounds ->
    Fmt.pf ppf "@,%-28s %8s %8s %8s@," "bound" "measured" "bound" "margin";
    List.iter (fun r -> Fmt.pf ppf "%a@," pp_bound_row r) bounds);
  (match t.harness with
  | [] -> ()
  | kvs ->
    Fmt.pf ppf "@,harness counters:@,";
    List.iter (fun (k, v) -> Fmt.pf ppf "  %-28s %d@," k v) kvs);
  Fmt.pf ppf "@]"
