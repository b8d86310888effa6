open Effect.Deep

type stop_reason =
  | All_finished
  | Policy_stopped
  | Step_limit
  | Decision_limit
  | All_halted

type result = {
  trace : Trace.t;
  finished : bool array;
  own_steps : int array;
  halted : bool array;
  stop : stop_reason;
}

type pstate =
  | Boundary of (unit, unit) continuation
      (* Thinking, suspended just before the next invocation's body. *)
  | Ready of (unit, unit) continuation * Op.t
      (* Mid-invocation (or about to start one), next statement pending. *)
  | Finished

(* Discontinues the processes a run leaves suspended (see [abandon]). *)
exception Abandoned

type cell = {
  info : Proc.t;
  mutable priority : int;  (* current priority; Sec. 5 dynamic priorities *)
  mutable state : pstate;
  mutable inv : int;  (* invocations begun so far *)
  mutable inv_label : string;  (* label of the pending/current invocation *)
  mutable mid_inv : bool;
  mutable own_steps : int;
  mutable inv_steps : int;
  mutable stamp : int;
      (* Processor statement count at this process's last own statement
         (or invocation start). The process was preempted since its last
         statement iff its processor's count has moved past the stamp,
         which derives the old eager [pending] flag without the per-
         statement broadcast over all cells. *)
  mutable guarantee : int;  (* remaining protected statements (Axiom 2) *)
  mutable grant_ver : int;  (* runnable-set version before this cell's
                               current guarantee was granted *)
  mutable dirty : bool;  (* scratch policy view needs rebuilding *)
}

let run ?(step_limit = 1_000_000) ?cost ?halted ?axiom2_active ?observer ?sink
    ?trace_buf ?(self_check = false) ~(config : Config.t) ~(policy : Policy.t)
    programs =
  let n = Config.n config in
  if Array.length programs <> n then
    invalid_arg "Engine.run: program count <> process count";
  (* Instantiate the policy's per-run decision function exactly once:
     stateful policies (round-robin cursor, seeded RNG, script position)
     get fresh state here, so reusing one [Policy.t] across runs is safe. *)
  let choose = Policy.prepare policy in
  let trace =
    match trace_buf with
    | None -> Trace.create config
    | Some t ->
      if Config.n (Trace.config t) <> n then
        invalid_arg "Engine.run: trace_buf configured for a different process count";
      Trace.reset t;
      t
  in
  (match (observer, sink) with
  | Some _, Some _ -> invalid_arg "Engine.run: ?observer and ?sink are mutually exclusive"
  | Some f, None -> Trace.set_observer trace f
  | None, Some s -> Trace.set_sink trace s
  | None, None -> ());
  let cost_of =
    match cost with
    | None -> fun _view _pid _op -> config.tmin
    | Some f ->
      fun view pid op -> max config.tmin (min config.tmax (f view pid op))
  in
  let cells =
    Array.init n (fun pid ->
        {
          info = config.procs.(pid);
          priority = config.procs.(pid).Proc.priority;
          state = Finished (* replaced below *);
          inv = 0;
          inv_label = "";
          mid_inv = false;
          own_steps = 0;
          inv_steps = 0;
          stamp = 0;
          guarantee = 0;
          grant_ver = 0;
          dirty = true;
        })
  in
  (* Incremental scheduler state (docs/ARCHITECTURE.md): every quantity
     the per-decision loop needs is maintained under the state
     transitions instead of recomputed by scanning all cells per
     candidate.

     - [proc_stmts.(P)]: statements executed on processor P; with each
       cell's [stamp] it derives the preempted-since-last-statement flag.
     - [ready_count.(P).(L)] and the cached [max_ready.(P)]: Ready cells
       per priority level, so Axiom 1 is one comparison per candidate.
     - [guard_count.(P).(L)]: unfinished cells holding an active quantum
       guarantee, so Axiom 2 blocking is one comparison per candidate.
     - the live list ([link_next]/[link_prev]): unfinished cells in
       ascending pid order, so a decision walks O(live) cells.
     - [live_count.(P).(L)] / [max_live.(P)] / [live_on.(P)] /
       [live_total]: unfinished cells per (processor, level), the cached
       per-processor maximum level, per-processor totals and the global
       total. These answer the burst-batching question — "is this
       process's selection forced?" — in O(1) (see the burst loop). *)
  let processors = config.processors in
  let proc_stmts = Array.make processors 0 in
  (* Last executor per processor: the only cell (other than the one
     executing) whose lazily-derived [pending] flag can flip at a
     statement, so the dirty tracking below can be exact without a scan. *)
  let last_exec = Array.make processors (-1) in
  let ready_count = Array.make_matrix processors (config.levels + 1) 0 in
  let max_ready = Array.make processors 0 in
  let guard_count = Array.make_matrix processors (config.levels + 1) 0 in
  let live_count = Array.make_matrix processors (config.levels + 1) 0 in
  let max_live = Array.make processors 0 in
  let live_on = Array.make processors 0 in
  let live_total = ref n in
  (* Membership version of the runnable set: bumped by every event that
     can change WHICH cells pass the runnable test (a [max_ready] move, a
     quantum-guard 0<->+ transition, a priority change, an unlink, an
     Axiom-2 gate flip). While the version is unchanged the decision loop
     reuses the previously built schedulable list instead of rescanning
     the live cells. [rs_built] is the version the cached list was built
     at. *)
  let rs_version = ref 0 in
  let rs_built = ref (-1) in
  Array.iter
    (fun c ->
      let p = c.info.Proc.processor and l = c.priority in
      live_count.(p).(l) <- live_count.(p).(l) + 1;
      if l > max_live.(p) then max_live.(p) <- l;
      live_on.(p) <- live_on.(p) + 1)
    cells;
  let incr_live p l =
    live_count.(p).(l) <- live_count.(p).(l) + 1;
    if l > max_live.(p) then max_live.(p) <- l
  in
  let decr_live p l =
    live_count.(p).(l) <- live_count.(p).(l) - 1;
    if l = max_live.(p) && live_count.(p).(l) = 0 then begin
      let m = ref 0 and l' = ref (l - 1) in
      while !l' >= 1 && !m = 0 do
        if live_count.(p).(!l') > 0 then m := !l';
        decr l'
      done;
      max_live.(p) <- !m
    end
  in
  (* Intrusive doubly-linked list of unfinished cells, ascending pid;
     index [n] is the head sentinel. *)
  let link_next = Array.make (n + 1) (-1) in
  let link_prev = Array.make (n + 1) (-1) in
  for i = 0 to n - 1 do
    link_next.(if i = 0 then n else i - 1) <- i;
    link_prev.(i) <- (if i = 0 then n else i - 1)
  done;
  let linked = Array.make n true in
  let unlink pid =
    if linked.(pid) then begin
      linked.(pid) <- false;
      incr rs_version;
      let c = cells.(pid) in
      live_on.(c.info.processor) <- live_on.(c.info.processor) - 1;
      live_total := !live_total - 1;
      decr_live c.info.processor c.priority;
      let p = link_prev.(pid) and nx = link_next.(pid) in
      link_next.(p) <- nx;
      if nx >= 0 then link_prev.(nx) <- p
    end
  in
  let incr_ready p l =
    ready_count.(p).(l) <- ready_count.(p).(l) + 1;
    if l > max_ready.(p) then begin
      max_ready.(p) <- l;
      incr rs_version
    end
  in
  let decr_ready p l =
    ready_count.(p).(l) <- ready_count.(p).(l) - 1;
    if l = max_ready.(p) && ready_count.(p).(l) = 0 then begin
      (* The top level emptied: rescan downwards. Each rescan step pays
         for an earlier [incr_ready] that raised the maximum. *)
      let m = ref 0 and l' = ref (l - 1) in
      while !l' >= 1 && !m = 0 do
        if ready_count.(p).(!l') > 0 then m := !l';
        decr l'
      done;
      max_ready.(p) <- !m;
      incr rs_version
    end
  in
  (* Dirty queue: every mutation that can stale a cell's policy view
     enqueues the pid, so a decision that reuses the cached runnable set
     refreshes exactly the touched views instead of walking all live
     cells. [queued] dedups; [refresh]/[drain_dirty] below consume. *)
  let queued = Array.make (max n 1) false in
  let dirty_buf = Array.make (max n 1) 0 in
  let dirty_len = ref 0 in
  let mark_dirty c =
    c.dirty <- true;
    let pid = c.info.pid in
    if not queued.(pid) then begin
      queued.(pid) <- true;
      dirty_buf.(!dirty_len) <- pid;
      incr dirty_len
    end
  in
  (* When [c] executes a statement on [proc], the only OTHER cell whose
     [pending] derivation can flip is the previous last executor (its
     stamp stops matching [proc_stmts]); mark it so its view refreshes. *)
  let note_exec c proc =
    let prev = last_exec.(proc) in
    if prev >= 0 && prev <> c.info.pid then mark_dirty cells.(prev);
    last_exec.(proc) <- c.info.pid
  in
  (* [state]/[priority]/[guarantee] are stale while a continuation chain
     runs (they describe the last suspension point); the counters mirror
     the fields, so they are exact whenever the decision loop looks. *)
  let set_state c st =
    (match c.state with
    | Ready _ -> decr_ready c.info.processor c.priority
    | Boundary _ | Finished -> ());
    c.state <- st;
    mark_dirty c;
    match st with
    | Ready _ -> incr_ready c.info.processor c.priority
    | Boundary _ -> ()
    | Finished -> unlink c.info.pid
  in
  let set_guarantee c g =
    if g <> c.guarantee then begin
      let was = c.guarantee > 0 and now = g > 0 in
      c.guarantee <- g;
      mark_dirty c;
      if was <> now then begin
        let gc = guard_count.(c.info.processor) in
        gc.(c.priority) <- (gc.(c.priority) + if now then 1 else -1);
        (* A guarantee's grant and drain are a matched pair: if nothing
           else touched the version while [c] held it, the drain restores
           membership exactly, so restore the version too and let the
           decision loop keep its cached runnable set (the common case —
           grants and drains happen inside the burst the holder is
           running, between two full decisions that both see the
           guarantee-free set). Any intervening bump forces the rescan
           as usual; so does a rebuild DURING the hold ([rs_built] at the
           held version) — restoring then could alias that held-set list
           with a later hold's different membership at the same version
           number. *)
        if now then begin
          c.grant_ver <- !rs_version;
          incr rs_version
        end
        else if !rs_version = c.grant_ver + 1 && !rs_built <> !rs_version then
          rs_version := c.grant_ver
        else incr rs_version
      end
    end
  in
  let is_pending c = c.mid_inv && proc_stmts.(c.info.processor) > c.stamp in
  (* Process-context marking (Runtime): the flag is true exactly while
     body code runs, so Shared can police its harness-only accessors.
     Every resume sets it; every handler entry clears it (handler code —
     including Trace appends and the scheduler loop — is harness
     context). *)
  let resume k v =
    Runtime.enter_process ();
    continue k v
  in
  let decisions = ref 0 in
  (* Statement-free decisions (empty invocations, finishing wakes) are
     invisible to [step_limit]; bound total decisions too so a
     statement-free loop cannot spin the scheduler forever. A legitimate
     run spends at most one decision per statement plus one per empty
     invocation, so 4x the statement budget is generous headroom. The
     two bounds stop with distinct reasons — a [Decision_limit] stop is
     the signature of a statement-free spin. *)
  let decision_limit =
    if step_limit >= max_int / 4 then max_int else 4 * step_limit
  in
  let stop = ref All_finished in
  (* The in-handler burst runs only within budget: at a limit it parks
     the process, and the decision loop's check stops the run. *)
  let within_limits () =
    Trace.statements trace < step_limit && !decisions < decision_limit
  in
  let check_limits () =
    if not (within_limits ()) then begin
      stop := if Trace.statements trace >= step_limit then Step_limit else Decision_limit;
      raise Exit
    end
  in
  (* [chain > 0] arms the in-handler burst fast path: the scheduler has
     established that the running cell's decisions are forced, so the
     [Eff.Step] handler may execute statements inline and [continue] the
     body directly instead of unwinding to the decision loop. The value
     bounds the nested-[continue] depth (each inline statement leaves a
     parent-stack frame until the burst unwinds); the scheduler's burst
     loop re-arms it, so the cap only costs one unwind per [chain_max]
     statements. *)
  let chain = ref 0 in
  let chain_max = 512 in
  (* Eager shadow of the lazy pending derivation, maintained under
     [self_check] exactly as the pre-incremental engine maintained its
     per-cell flag. *)
  let eager_pending = Array.make n false in
  let cur = ref cells.(0) in
  (* Record that [c]'s next invocation begins now. *)
  let begin_inv c =
    c.mid_inv <- true;
    c.inv_steps <- 0;
    (* A fresh invocation starts unpreempted. *)
    c.stamp <- proc_stmts.(c.info.processor);
    mark_dirty c;
    Trace.add_inv_begin trace ~pid:c.info.pid ~inv:c.inv ~label:c.inv_label;
    c.inv <- c.inv + 1
  in
  let end_inv c label =
    if not c.mid_inv then begin_inv c (* empty invocation *);
    c.mid_inv <- false;
    set_guarantee c 0;
    c.inv_steps <- 0;
    mark_dirty c;
    if self_check then eager_pending.(c.info.pid) <- false;
    Trace.add_inv_end trace ~pid:c.info.pid ~inv:(c.inv - 1) ~label
  in
  (* The effect-handler functions are allocated once per run and
     re-returned from [effc] through pre-built [Some] cells; the effect's
     payload travels through a stash ref written by [effc] immediately
     before the handler function runs (nothing can intervene: the
     machinery calls it straight away, on this same fiber). This keeps
     the per-statement handler path allocation-free — a fresh closure +
     option per perform is most of what the old path allocated. *)
  let stash_op = ref (Op.local "") in
  (* A handler failing before it resumes [k] parks it, so teardown
     discontinues it. *)
  let park c k e =
    c.state <- Boundary k;
    raise e
  in
  let stash_str = ref "" in
  let stash_level = ref 0 in
  let step_fn (k : (unit, unit) continuation) =
    Runtime.exit_process ();
    let op = !stash_op in
    let c = !cur in
    (* Burst fast path: while this cell's next decision is still forced
       — it is the last unfinished process, the sole live process at its
       level with nothing live above it, or its quantum guarantee plus
       Axiom 1 silence every other candidate (see the burst loop's
       soundness argument) — execute the statement here and resume the
       body without unwinding to the scheduler. Every mutation below is
       the decision loop's per-statement path verbatim, so the
       observable run is identical; the handlers that could invalidate
       forcedness (Inv_end clearing the guarantee, Set_priority moving
       levels, a finishing body unlinking) all update the counters this
       test reads before the next statement can reach it. *)
    if
      !chain > 0
      && within_limits ()
      && (!live_total = 1
         ||
         let p = c.info.processor in
         live_on.(p) = !live_total
         && max_live.(p) = c.priority
         && (live_count.(p).(c.priority) = 1
            || (config.axiom2 && c.guarantee > 0)))
    then begin
      decr chain;
      incr decisions;
      (try
         if not c.mid_inv then begin_inv c;
         if is_pending c then set_guarantee c config.quantum;
         let cost = config.tmin in
         Trace.add_stmt trace ~pid:c.info.pid ~op ~inv:(c.inv - 1) ~cost;
         c.own_steps <- c.own_steps + 1;
         c.inv_steps <- c.inv_steps + 1;
         mark_dirty c;
         set_guarantee c (max 0 (c.guarantee - cost))
       with e -> park c k e);
      let proc = c.info.processor in
      note_exec c proc;
      proc_stmts.(proc) <- proc_stmts.(proc) + 1;
      c.stamp <- proc_stmts.(proc);
      resume k ()
    end
    else set_state c (Ready (k, op))
  in
  let step_some = Some step_fn in
  let inv_begin_fn (k : (unit, unit) continuation) =
    Runtime.exit_process ();
    let label = !stash_str in
    let c = !cur in
    if c.mid_inv then
      Fmt.kstr (fun m -> park c k (Invalid_argument m))
        "Eff.invocation: nested invocation %S in %s" label c.info.name;
    c.inv_label <- label;
    set_state c (Boundary k)
  in
  let inv_begin_some = Some inv_begin_fn in
  let inv_end_fn (k : (unit, unit) continuation) =
    Runtime.exit_process ();
    (try end_inv !cur !stash_str with e -> park !cur k e);
    resume k ()
  in
  let inv_end_some = Some inv_end_fn in
  let note_fn (k : (unit, unit) continuation) =
    Runtime.exit_process ();
    (try Trace.add trace (Trace.Note { pid = !cur.info.pid; text = !stash_str })
     with e -> park !cur k e);
    resume k ()
  in
  let note_some = Some note_fn in
  let now_fn (k : (int, unit) continuation) =
    Runtime.exit_process ();
    Trace.count_now trace;
    resume k (Trace.statements trace)
  in
  let now_some = Some now_fn in
  let stamp_fn (k : (int * int, unit) continuation) =
    Runtime.exit_process ();
    Trace.count_stamp trace;
    let proc = !cur.info.processor in
    resume k (proc, proc_stmts.(proc))
  in
  let stamp_some = Some stamp_fn in
  let set_priority_fn (k : (unit, unit) continuation) =
    Runtime.exit_process ();
    let p = !stash_level in
    let c = !cur in
    if c.mid_inv then
      Fmt.kstr (fun m -> park c k (Invalid_argument m))
        "Eff.set_priority: %s cannot change priority mid-invocation" c.info.name;
    if p < 1 || p > config.levels then
      park c k (Invalid_argument "Eff.set_priority: level out of range");
    if p <> c.priority then begin
      let proc = c.info.processor in
      (match c.state with
      | Ready _ -> decr_ready proc c.priority
      | Boundary _ | Finished -> ());
      if c.guarantee > 0 then begin
        let gc = guard_count.(proc) in
        gc.(c.priority) <- gc.(c.priority) - 1;
        gc.(p) <- gc.(p) + 1
      end;
      decr_live proc c.priority;
      c.priority <- p;
      incr_live proc p;
      mark_dirty c;
      incr rs_version;
      (match c.state with
      | Ready _ -> incr_ready proc p
      | Boundary _ | Finished -> ())
    end;
    (try Trace.add trace (Trace.Set_priority { pid = c.info.pid; priority = p })
     with e -> park c k e);
    resume k ()
  in
  let set_priority_some = Some set_priority_fn in
  (* Teardown: a dropped continuation's fiber stack is never freed, so
     every process still suspended when the run ends (limit or policy
     stop, All_halted, an exception) is discontinued with [Abandoned]:
     its finalizers run in process context, effects it performs while
     unwinding are discontinued too, and the handler swallows it. *)
  let abandoning = ref false in
  let abandon c =
    match c.state with
    | Finished -> ()
    | Boundary k | Ready (k, _) ->
      c.state <- Finished;
      cur := c;
      abandoning := true;
      Runtime.enter_process ();
      (try discontinue k Abandoned with _ -> ());
      Runtime.exit_process ()
  in
  let handler =
    {
      retc =
        (fun () ->
          Runtime.exit_process ();
          let c = !cur in
          (* A body may return mid-invocation (statements with no closing
             [Inv_end]): its guarantee and preemption bookkeeping die with
             it, or equal-priority peers would stay guarded by a finished
             process forever and the runnable set could empty out. *)
          c.mid_inv <- false;
          set_guarantee c 0;
          if self_check then eager_pending.(c.info.pid) <- false;
          set_state c Finished);
      exnc =
        (fun e ->
          Runtime.exit_process ();
          match e with Abandoned -> () | e -> raise e);
      effc =
        (fun (type a) (e : a Effect.t) : ((a, unit) continuation -> unit) option ->
          if !abandoning then Some (fun k -> discontinue k Abandoned)
          else
          match e with
          | Eff.Step op ->
            stash_op := op;
            step_some
          | Eff.Inv_begin label ->
            stash_str := label;
            inv_begin_some
          | Eff.Inv_end label ->
            stash_str := label;
            inv_end_some
          | Eff.Note text ->
            stash_str := text;
            note_some
          | Eff.Now -> now_some
          | Eff.Stamp -> stamp_some
          | Eff.Set_priority p ->
            stash_level := p;
            set_priority_some
          | _ -> None);
    }
  in
  (* From here on the observer can fire (launch already appends events)
     and process bodies can raise: guarantee the observer/sink is
     detached on every exit path — normal return, body exception, policy
     misbehaviour — so a [trace_buf] reused across runs can never leak a
     stale observer into the next run, and a returned [result.trace]
     never escapes with a live hook attached. *)
  Fun.protect ~finally:(fun () ->
      Trace.clear_observer trace;
      Array.iter abandon cells)
  @@ fun () ->
  (* Launch every process up to its first suspension point. *)
  Array.iteri
    (fun pid body ->
      cur := cells.(pid);
      Runtime.enter_process ();
      match_with body () handler)
    programs;
  (* Axiom 2 enforcement may be gated off by fault injection; gate flips
     are recorded in the trace so the checker stays in sync. *)
  let gate_active = ref true in
  let sync_gate () =
    match axiom2_active with
    | None -> ()
    | Some f ->
      let now = f ~step:(Trace.statements trace) in
      if now <> !gate_active then begin
        gate_active := now;
        incr rs_version;
        (* Guarantees granted while enforcement was off were never
           enforceable; carrying them into the restored regime could
           leave every process guarded by another (no runnable pick).
           Re-enforcement starts fresh: pending flags survive, so a
           preempted process still earns protection at its next resume. *)
        if now then Array.iter (fun c -> set_guarantee c 0) cells;
        Trace.add trace (Trace.Axiom2_gate { at = Trace.statements trace; active = now })
      end
  in
  (* While the gate is on there is at most one guarantee holder per
     (processor, level) — re-enforcement cleared the rest — so [c] is
     guarded iff the level's holder count exceeds [c]'s own holding. *)
  let guarded_by_other c =
    config.axiom2 && !gate_active
    && guard_count.(c.info.processor).(c.priority)
       > (if c.guarantee > 0 then 1 else 0)
  in
  let pview c : Policy.pview =
    {
      pid = c.info.pid;
      processor = c.info.processor;
      priority = c.priority;
      phase =
        (match c.state with
        | Finished -> Policy.Finished
        | Ready _ -> Policy.Ready
        | Boundary _ -> Policy.Thinking);
      next_op = (match c.state with Ready (_, op) -> Some op | _ -> None);
      own_steps = c.own_steps;
      inv_steps = c.inv_steps;
      inv = c.inv;
      guarantee = c.guarantee;
      pending = is_pending c;
    }
  in
  (* Scratch policy views, refreshed in place: only cells that changed
     since the last decision re-allocate a view record. *)
  let views = Array.map pview cells in
  Array.iter (fun c -> c.dirty <- false) cells;
  let refresh pid =
    let c = cells.(pid) in
    if c.dirty || views.(pid).Policy.pending <> is_pending c then begin
      views.(pid) <- pview c;
      c.dirty <- false
    end
  in
  let drain_dirty () =
    for j = 0 to !dirty_len - 1 do
      let pid = dirty_buf.(j) in
      queued.(pid) <- false;
      refresh pid
    done;
    dirty_len := 0
  in
  let is_finished c = match c.state with Finished -> true | Ready _ | Boundary _ -> false in
  (* A halted (fault-injected) process is withheld from the policy's
     choices but still blocks per Axioms 1/2 — a crash is the scheduler
     never allocating it another quantum, not the process vanishing. *)
  let is_halted_view (pv : Policy.pview) =
    match halted with
    | None -> false
    | Some pred -> pv.Policy.phase <> Policy.Finished && pred pv
  in
  (* Naive reference semantics, retained for [self_check]: recompute each
     scheduling quantity by full scan, exactly as the pre-incremental
     engine did, and require agreement. *)
  let naive_max_ready processor =
    Array.fold_left
      (fun acc c ->
        match c.state with
        | Ready _ when c.info.processor = processor -> max acc c.priority
        | Ready _ | Boundary _ | Finished -> acc)
      0 cells
  in
  let naive_guarded c =
    config.axiom2 && !gate_active
    && Array.exists
         (fun q ->
           q != c
           && q.info.processor = c.info.processor
           && q.priority = c.priority
           && q.guarantee > 0
           && not (is_finished q))
         cells
  in
  let naive_runnable c =
    match c.state with
    | Finished -> false
    | Ready _ | Boundary _ ->
      c.priority >= naive_max_ready c.info.processor && not (naive_guarded c)
  in
  let naive_live processor =
    Array.fold_left
      (fun acc c ->
        if (not (is_finished c)) && c.info.processor = processor then acc + 1 else acc)
      0 cells
  in
  let naive_max_live processor =
    Array.fold_left
      (fun acc c ->
        if (not (is_finished c)) && c.info.processor = processor then max acc c.priority
        else acc)
      0 cells
  in
  let check_invariants nr runnable_buf =
    for p = 0 to processors - 1 do
      assert (max_ready.(p) = naive_max_ready p);
      assert (live_on.(p) = naive_live p);
      assert (max_live.(p) = naive_max_live p)
    done;
    assert (!live_total = Array.fold_left (fun a c -> a + if is_finished c then 0 else 1) 0 cells);
    Array.iteri
      (fun i c ->
        assert (views.(i) = pview c);
        assert (eager_pending.(i) = is_pending c);
        if is_finished c then assert (not linked.(i)))
      cells;
    let naive = ref [] in
    Array.iter (fun c -> if naive_runnable c then naive := c.info.pid :: !naive) cells;
    assert (List.rev !naive = List.init nr (fun j -> runnable_buf.(j)))
  in
  let runnable_buf = Array.make (max n 1) 0 in
  let sched_buf = Array.make (max n 1) 0 in
  let sched_mark = Array.make (max n 1) 0 in
  let build_id = ref 0 in
  let cached_sched = ref [] in
  (* Schedulable-list reuse is valid only when membership is judged by
     the incremental counters alone: [halted] re-judges membership with a
     per-decision predicate, and [self_check] must run the naive scan
     every decision (it is also how the dirty tracking above is audited —
     a missed [mark_dirty] fails the views assertion). *)
  let caching = (not self_check) && Option.is_none halted in
  (* Quantum-burst batching (the Axiom-2 fast path). A decision is
     {e forced} when the schedulable set is the singleton [{c}]; under a
     burst-safe policy ({!Policy.t}) consulting it is then observable
     nowhere, so the engine may run such decisions in a tight loop
     without rebuilding views, runnable sets, or calling the policy.
     Forcedness is detected in O(1) from the live counters, in three
     modes (the last two share the [live_on = live_total] premise: any
     OTHER processor with a live process always contributes at least one
     candidate — its top live level has either an unguarded process or
     the guarantee holder itself):

     - {e solo}: [c] is the only unfinished process anywhere. Trivially
       the only candidate, through any number of invocations.
     - {e singleton level}: [c] is Ready and the only live process at
       its level on its processor, with nothing live above
       ([live_count = 1] and [max_live = c.priority]). [c] Ready puts
       [max_ready] at [c]'s level, so Axiom 1 silences everything
       below; nothing shares the level, so no quantum guarantee is
       needed. Holds across invocation boundaries of [c] itself (the
       in-handler fast path), but not through a Boundary wake in the
       burst loop below — while [c] thinks, lower levels are runnable.
     - {e guarantee}: Axiom 2 is enforced and [c] is Ready mid-quantum
       ([guarantee > 0], so every equal-priority process on its
       processor is guarded), with no live process on its processor
       above [c]'s level ([max_live = c.priority]; Axiom 1 silences
       everyone below).

     Nothing else can change engine state while the burst runs — all
     other processes are suspended — so the conditions only need
     re-checking against [c]'s own transitions, once per statement. The
     hooks that could observe or perturb individual decisions disable
     batching wholesale: [self_check] (the eager shadow must track every
     decision), [halted] (consulted per decision), [axiom2_active] (can
     revoke the guarantee mid-burst), [cost] (sees per-decision views),
     and non-burst-safe policies (would miss decisions). Each burst
     iteration replays the per-decision path below exactly — wake, lazy
     [begin_inv], guarantee grant/drain, limits, one [decisions] tick —
     so traces, counters and stop reasons are byte-identical to the
     unbatched engine (the differential suite in test/test_burst.ml
     holds it to that). *)
  let batching =
    (not self_check)
    && Option.is_none halted
    && Option.is_none axiom2_active
    && Option.is_none cost
    && policy.Policy.burst_safe
  in
  let forced c =
    linked.(c.info.pid)
    && (!live_total = 1
       ||
       let p = c.info.processor in
       live_on.(p) = !live_total
       && max_live.(p) = c.priority
       && (match c.state with Ready _ -> true | Boundary _ | Finished -> false)
       && (live_count.(p).(c.priority) = 1
          || (config.axiom2 && c.guarantee > 0)))
  in
  (try
     while link_next.(n) >= 0 do
       check_limits ();
       incr decisions;
       sync_gate ();
       let schedulable =
         if caching && !rs_built = !rs_version then begin
           (* Membership unchanged since the last scan: reuse the built
              list, refreshing only the views the dirty queue names. *)
           drain_dirty ();
           !cached_sched
         end
         else begin
           drain_dirty ();
           incr build_id;
           (* One pass over live cells in ascending pid order: refresh
              the scratch views and collect the runnable/schedulable
              sets. *)
           let nr = ref 0 and ns = ref 0 in
           let i = ref link_next.(n) in
           while !i >= 0 do
             let c = cells.(!i) in
             refresh !i;
             if c.priority >= max_ready.(c.info.processor) && not (guarded_by_other c)
             then begin
               runnable_buf.(!nr) <- !i;
               incr nr;
               if not (is_halted_view views.(!i)) then begin
                 sched_buf.(!ns) <- !i;
                 incr ns;
                 sched_mark.(!i) <- !build_id
               end
             end;
             i := link_next.(!i)
           done;
           if self_check then check_invariants !nr runnable_buf;
           assert (!nr > 0);
           if !ns = 0 then begin
             stop := All_halted;
             raise Exit
           end;
           let rec build j acc =
             if j < 0 then acc else build (j - 1) (sched_buf.(j) :: acc)
           in
           let l = build (!ns - 1) [] in
           cached_sched := l;
           rs_built := !rs_version;
           l
         end
       in
       let view : Policy.view =
         { step = Trace.statements trace; runnable = schedulable; procs = views }
       in
       (match choose view with
       | None ->
         stop := Policy_stopped;
         raise Exit
       | Some pid ->
         if pid < 0 || pid >= n || sched_mark.(pid) <> !build_id then
           Fmt.invalid_arg "Engine.run: policy %s chose non-runnable %a" policy.name
             Proc.pp_pid pid;
         let c = cells.(pid) in
         (* Wake: advance through the invocation boundary if thinking. *)
         (match c.state with
         | Boundary k ->
           cur := c;
           resume k ()
         | Ready _ | Finished -> ());
         (match c.state with
         | Ready (k, op) ->
           if not c.mid_inv then begin_inv c;
           if self_check then assert (eager_pending.(pid) = is_pending c);
           if is_pending c then
             (* Axiom 2: resuming after a preemption grants Q protected
                statements (this one included). *)
             set_guarantee c config.quantum;
           if self_check then eager_pending.(pid) <- false;
           let cost = cost_of view pid op in
           Trace.add_stmt trace ~pid ~op ~inv:(c.inv - 1) ~cost;
           c.own_steps <- c.own_steps + 1;
           c.inv_steps <- c.inv_steps + 1;
           mark_dirty c;
           set_guarantee c (max 0 (c.guarantee - cost));
           (* Everyone else mid-invocation on this processor is now
              preempted-before-its-next-statement: advancing the
              processor counter past their stamps says exactly that. *)
           let proc = c.info.processor in
           note_exec c proc;
           proc_stmts.(proc) <- proc_stmts.(proc) + 1;
           c.stamp <- proc_stmts.(proc);
           if self_check then
             Array.iter
               (fun q ->
                 if q != c && q.info.processor = proc && q.mid_inv then
                   eager_pending.(q.info.pid) <- true)
               cells;
           cur := c;
           if batching then chain := chain_max;
           resume k ();
           chain := 0
         | Boundary _ | Finished ->
           (* The wake consumed an empty invocation, or the body finished
              without executing a statement: the decision was a no-op. *)
           ());
         (* Burst: as long as [c]'s selection stays forced, keep
            executing its decisions without re-entering the machinery
            above. With [batching] true the hooks are all absent, so
            [cost_of] is the constant [tmin] and [sync_gate] is a no-op
            — each iteration below is the per-decision path verbatim. *)
         if batching then begin
           while forced c do
             check_limits ();
             incr decisions;
             (match c.state with
             | Boundary k ->
               cur := c;
               resume k ()
             | Ready _ | Finished -> ());
             match c.state with
             | Ready (k, op) ->
               if not c.mid_inv then begin_inv c;
               if is_pending c then set_guarantee c config.quantum;
               let cost = config.tmin in
               Trace.add_stmt trace ~pid ~op ~inv:(c.inv - 1) ~cost;
               c.own_steps <- c.own_steps + 1;
               c.inv_steps <- c.inv_steps + 1;
               mark_dirty c;
               set_guarantee c (max 0 (c.guarantee - cost));
               let proc = c.info.processor in
               note_exec c proc;
               proc_stmts.(proc) <- proc_stmts.(proc) + 1;
               c.stamp <- proc_stmts.(proc);
               cur := c;
               chain := chain_max;
               resume k ();
               chain := 0
             | Boundary _ | Finished -> ()
           done
         end)
     done
   with Exit -> ());
  {
    trace;
    finished = Array.map is_finished cells;
    own_steps = Array.map (fun c -> c.own_steps) cells;
    halted =
      Array.map
        (fun c ->
          match halted with
          | None -> false
          | Some pred -> (not (is_finished c)) && pred (pview c))
        cells;
    stop = !stop;
  }
