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

(* Ends the decision loop. Private, so a process body or a policy that
   raises [Exit] propagates like any other exception. *)
exception Stop of stop_reason

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
  crash_after : int;  (* own statements before the crash point; [max_int]
                         for a process no crash names *)
  mutable grant_ver : int;  (* runnable-set version before this cell's
                               current guarantee was granted *)
  mutable dirty : bool;  (* this cell's policy view needs rebuilding *)
}

let run ?(step_limit = 1_000_000) ?cost ?(crashes = []) ?axiom2_active ?sink ?trace_buf
    ~(config : Config.t) ~(policy : Policy.t) programs =
  let n = Config.n config in
  if Array.length programs <> n then
    invalid_arg "Engine.run: program count <> process count";
  let crash_after = Array.make n max_int in
  List.iter
    (fun (victim, after) ->
      if victim < 0 || victim >= n then
        Fmt.invalid_arg "Engine.run: crash victim %d outside [0, %d)" victim n;
      crash_after.(victim) <- min crash_after.(victim) after)
    crashes;
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
  Option.iter (Trace.set_sink trace) sink;
  let cost_of =
    match cost with
    | None -> fun _pid _op -> config.tmin
    | Some f ->
      fun pid op ->
        max config.tmin (min config.tmax (f ~step:(Trace.statements trace) pid op))
  in
  let new_cell (info : Proc.t) crash_after =
    {
      info;
      priority = info.priority;
      state = Finished (* replaced below *);
      inv = 0;
      inv_label = "";
      mid_inv = false;
      own_steps = 0;
      inv_steps = 0;
      stamp = 0;
      guarantee = 0;
      crash_after;
      grant_ver = 0;
      dirty = true;
    }
  in
  let cells = Array.init n (fun pid -> new_cell config.procs.(pid) crash_after.(pid)) in
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
       process's selection forced?" — in O(1) (see [forced]). *)
  let processors = config.processors in
  let proc_stmts = Array.make processors 0 in
  let ready_count = Array.make_matrix processors (config.levels + 1) 0 in
  let max_ready = Array.make processors 0 in
  let guard_count = Array.make_matrix processors (config.levels + 1) 0 in
  let live_count = Array.make_matrix processors (config.levels + 1) 0 in
  let max_live = Array.make processors 0 in
  let live_on = Array.make processors 0 in
  let live_total = ref n in
  (* Membership version of the schedulable set: bumped by every event
     that can change WHICH cells pass the runnable test (a [max_ready]
     rise or fall, a quantum-guard 0<->+ transition, a priority change,
     an unlink, an Axiom-2 gate flip) or park a crash victim (see
     [parked]) and by nothing else. A statement that leaves its process
     Ready (the common case: the next statement is announced) moves no
     counter, so it bumps nothing. While the version
     is unchanged the decision loop reuses the previously built
     schedulable list instead of rescanning the live cells. [rs_built]
     is the version the cached list was built at. *)
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
      (* A process woke above every Ready process of its processor: the
         levels in between stop being runnable. *)
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
  let is_ready = function Ready _ -> true | Boundary _ | Finished -> false in
  (* docs/MODEL.md's crash rule: an unfinished victim is parked — never
     scheduled again, though it still blocks per Axioms 1/2 — once it
     has run [crash_after] own statements and holds no guarantee. Both
     only move while the victim runs or when its guarantee is cleared,
     so parking is permanent, and it starts at one of three transitions,
     each of which bumps [rs_version]: the victim's own statement
     ([exec_stmt]), the drain of its guarantee ([set_guarantee], from a
     statement, [end_inv] or a body's return) and Axiom-2 re-enforcement
     ([sync_gate]). *)
  let parked c = c.own_steps >= c.crash_after && c.guarantee = 0 in
  (* [state]/[priority]/[guarantee] are stale while a continuation chain
     runs (they describe the last suspension point); the counters mirror
     the fields, so they are exact whenever the decision loop looks.
     Every path from a running body back to the decision loop ends here,
     so this one [dirty] mark also covers the running cell's own view
     changes in [begin_inv], [end_inv], [exec_stmt] and [Set_priority].
     Ready to Ready (a statement followed by the next one's announcement)
     changes no counter. *)
  let set_state c st =
    let was = is_ready c.state and now = is_ready st in
    if was && not now then decr_ready c.info.processor c.priority
    else if now && not was then incr_ready c.info.processor c.priority;
    c.state <- st;
    c.dirty <- true;
    match st with Finished -> unlink c.info.pid | Ready _ | Boundary _ -> ()
  in
  let set_guarantee c g =
    if g <> c.guarantee then begin
      let was = c.guarantee > 0 and now = g > 0 in
      c.guarantee <- g;
      c.dirty <- true;
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
           number. A drain that parks a crash victim changes membership,
           so it never restores. *)
        if now then begin
          c.grant_ver <- !rs_version;
          incr rs_version
        end
        else if
          !rs_version = c.grant_ver + 1 && !rs_built <> !rs_version && not (parked c)
        then rs_version := c.grant_ver
        else incr rs_version
      end
    end
  in
  let is_pending c = c.mid_inv && proc_stmts.(c.info.processor) > c.stamp in
  (* Process-context marking (Runtime): the flag is true exactly while
     body code runs, so Shared can police its harness-only accessors.
     Every resume sets it; every handler entry clears it (handler code —
     including Trace appends and the scheduler loop — is harness
     context). [rt] is this domain's context, looked up once per run. *)
  let rt = Runtime.handle () in
  let resume k v =
    Runtime.enter rt;
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
  (* The in-handler burst runs only within budget: at a limit it parks
     the process, and the decision loop's check stops the run. *)
  let within_limits () =
    Trace.statements trace < step_limit && !decisions < decision_limit
  in
  let check_limits () =
    if not (within_limits ()) then
      raise
        (Stop (if Trace.statements trace >= step_limit then Step_limit else Decision_limit))
  in
  (* Quantum-burst batching (the Axiom-2 fast path). A decision is
     {e forced} when the schedulable set is the singleton [{c}]; under a
     burst-safe policy ({!Policy.t}) consulting it is then observable
     nowhere, so the decision loop takes [c] without building views or
     the schedulable list and without calling the policy, and the
     [Eff.Step] handler runs [c]'s statements inline while they stay
     forced. Forcedness is detected in O(1) from the live counters, in
     three modes (the last two share the [live_on = live_total] premise:
     any OTHER processor with a live process always contributes at least
     one candidate — its top live level has either an unguarded process
     or the guarantee holder itself):

     - {e solo}: [c] is the only unfinished process anywhere. Trivially
       the only candidate, through any number of invocations.
     - {e singleton level}: [c] is Ready and the only live process at
       its level on its processor, with nothing live above
       ([live_count = 1] and [max_live = c.priority]). [c] Ready puts
       [max_ready] at [c]'s level, so Axiom 1 silences everything
       below; nothing shares the level, so no quantum guarantee is
       needed. Not through a Boundary wake: while [c] thinks, lower
       levels are runnable. (Inside a burst [c.state] still reads Ready,
       so the handler's test holds across [c]'s own invocation ends.)
     - {e guarantee}: Axiom 2 is enforced and [c] is Ready mid-quantum
       ([guarantee > 0], so every equal-priority process on its
       processor is guarded), with no live process on its processor
       above [c]'s level ([max_live = c.priority]; Axiom 1 silences
       everyone below).

     Nothing else can change engine state while the burst runs — all
     other processes are suspended — and the handlers that could end
     forcedness (Inv_end clearing the guarantee, Set_priority moving
     levels, a finishing body unlinking) update the counters [forced]
     reads before the next statement reaches it. The inputs that could
     observe or perturb individual decisions disable batching wholesale:
     [crashes] (a burst could run a victim past its crash point),
     [axiom2_active] (can revoke the guarantee mid-burst), [cost]
     (consulted per statement), and non-burst-safe policies (would miss
     decisions). A burst decision still runs the limits check, one
     [decisions] tick, the wake and {!exec_stmt}, so traces, counters
     and stop reasons are byte-identical to the unbatched engine (the
     differential suite in test/test_burst.ml holds it, and the cached
     path, to the reference interpreter in test/reference). *)
  let batching =
    crashes = []
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
  (* [chain > 0] arms the in-handler burst: the decision loop took a
     forced decision under [batching], so the [Eff.Step] handler may
     execute statements inline and [continue] the body directly instead
     of unwinding to the decision loop. The value bounds the
     nested-[continue] depth (each inline statement leaves a
     parent-stack frame until the burst unwinds); the decision loop
     re-arms it, so the cap only costs one unwind per [chain_max]
     statements. *)
  let chain = ref 0 in
  let chain_max = 512 in
  (* The cell whose body runs. A run with no processes never reads it. *)
  let cur =
    ref
      (if n > 0 then cells.(0)
       else new_cell (Proc.make ~pid:0 ~processor:0 ~priority:1 ()) max_int)
  in
  (* Record that [c]'s next invocation begins now. *)
  let begin_inv c =
    c.mid_inv <- true;
    c.inv_steps <- 0;
    (* A fresh invocation starts unpreempted. *)
    c.stamp <- proc_stmts.(c.info.processor);
    Trace.add_inv_begin trace ~pid:c.info.pid ~inv:c.inv ~label:c.inv_label;
    c.inv <- c.inv + 1
  in
  let end_inv c label =
    if not c.mid_inv then begin_inv c (* empty invocation *);
    c.mid_inv <- false;
    set_guarantee c 0;
    c.inv_steps <- 0;
    Trace.add_inv_end trace ~pid:c.info.pid ~inv:(c.inv - 1) ~label
  in
  (* The statement transition: [c] executes [op], taking [cost] time
     units. The one copy behind both the decision loop and the
     in-handler burst. *)
  let exec_stmt c op ~cost =
    let pid = c.info.pid in
    if not c.mid_inv then begin_inv c;
    if is_pending c then
      (* Axiom 2: resuming after a preemption grants Q protected
         statements (this one included). *)
      set_guarantee c config.quantum;
    Trace.add_stmt trace ~pid ~op ~inv:(c.inv - 1) ~cost;
    c.own_steps <- c.own_steps + 1;
    c.inv_steps <- c.inv_steps + 1;
    set_guarantee c (max 0 (c.guarantee - cost));
    (* The crash point reached with no guarantee to drain first. *)
    if c.own_steps = c.crash_after && c.guarantee = 0 then incr rs_version;
    (* Everyone else mid-invocation on this processor is now
       preempted-before-its-next-statement: advancing the processor
       counter past their stamps says exactly that. *)
    let proc = c.info.processor in
    proc_stmts.(proc) <- proc_stmts.(proc) + 1;
    c.stamp <- proc_stmts.(proc)
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
    Runtime.leave rt;
    let op = !stash_op in
    let c = !cur in
    (* In-handler burst: while this cell's next decision is still
       forced, execute the statement here and resume the body without
       unwinding to the decision loop. *)
    if !chain > 0 && within_limits () && forced c then begin
      decr chain;
      incr decisions;
      (try exec_stmt c op ~cost:config.tmin with e -> park c k e);
      resume k ()
    end
    else set_state c (Ready (k, op))
  in
  let step_some = Some step_fn in
  let inv_begin_fn (k : (unit, unit) continuation) =
    Runtime.leave rt;
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
    Runtime.leave rt;
    (try end_inv !cur !stash_str with e -> park !cur k e);
    resume k ()
  in
  let inv_end_some = Some inv_end_fn in
  let stamp_fn (k : (int * int, unit) continuation) =
    Runtime.leave rt;
    let proc = !cur.info.processor in
    resume k (proc, proc_stmts.(proc))
  in
  let stamp_some = Some stamp_fn in
  let set_priority_fn (k : (unit, unit) continuation) =
    Runtime.leave rt;
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
      Runtime.enter rt;
      (try discontinue k Abandoned with _ -> ());
      Runtime.leave rt
  in
  let handler =
    {
      retc =
        (fun () ->
          Runtime.leave rt;
          let c = !cur in
          (* A body may return mid-invocation (statements with no closing
             [Inv_end]): its guarantee and preemption bookkeeping die with
             it, or equal-priority peers would stay guarded by a finished
             process forever and the runnable set could empty out. *)
          c.mid_inv <- false;
          set_guarantee c 0;
          set_state c Finished);
      exnc =
        (fun e ->
          Runtime.leave rt;
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
          | Eff.Stamp -> stamp_some
          | Eff.Set_priority p ->
            stash_level := p;
            set_priority_some
          | _ -> None);
    }
  in
  (* From here on the sink can fire (launch already appends events) and
     process bodies can raise: guarantee the sink is detached on every
     exit path — normal return, body exception, policy misbehaviour — so
     a [trace_buf] reused across runs can never leak a stale sink into
     the next run, and a returned [result.trace] never escapes with a
     live hook attached. *)
  Fun.protect ~finally:(fun () ->
      Trace.clear_sink trace;
      Array.iter abandon cells)
  @@ fun () ->
  (* Launch every process up to its first suspension point. *)
  Array.iteri
    (fun pid body ->
      cur := cells.(pid);
      Runtime.enter rt;
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
  (* Policy views, built on read: [proc pid] rebuilds [pid]'s record
     only when a transition marked the cell [dirty] or another process's
     statement flipped its derived [pending] flag (the one view field a
     statement changes in a cell that does not run it), so a decision
     pays only for the views its policy reads. An unchanged view keeps
     its physically-same record. *)
  let views = Array.map pview cells in
  Array.iter (fun c -> c.dirty <- false) cells;
  let proc pid =
    let c = cells.(pid) in
    if c.dirty || views.(pid).Policy.pending <> is_pending c then begin
      views.(pid) <- pview c;
      c.dirty <- false
    end;
    views.(pid)
  in
  let is_finished c = match c.state with Finished -> true | Ready _ | Boundary _ -> false in
  let sched_buf = Array.make (max n 1) 0 in
  let sched_mark = Array.make (max n 1) 0 in
  let build_id = ref 0 in
  let cached_sched = ref [] in
  (* The one view record of the run, updated in place per policy call. *)
  let view = { Policy.step = 0; runnable = []; nprocs = n; proc } in
  let stop = ref All_finished in
  (try
     while link_next.(n) >= 0 do
       check_limits ();
       incr decisions;
       sync_gate ();
       let c =
         if batching && forced !cur then !cur
         else begin
           let schedulable =
             (* Membership unchanged since the last scan: reuse the list. *)
             if !rs_built = !rs_version then !cached_sched
             else begin
               incr build_id;
               (* One pass over live cells in ascending pid order:
                  collect the runnable/schedulable sets. *)
               let nr = ref 0 and ns = ref 0 in
               let i = ref link_next.(n) in
               while !i >= 0 do
                 let c = cells.(!i) in
                 if c.priority >= max_ready.(c.info.processor) && not (guarded_by_other c)
                 then begin
                   incr nr;
                   if not (parked c) then begin
                     sched_buf.(!ns) <- !i;
                     incr ns;
                     sched_mark.(!i) <- !build_id
                   end
                 end;
                 i := link_next.(!i)
               done;
               assert (!nr > 0);
               if !ns = 0 then raise (Stop All_halted);
               let rec build j acc =
                 if j < 0 then acc else build (j - 1) (sched_buf.(j) :: acc)
               in
               let l = build (!ns - 1) [] in
               cached_sched := l;
               rs_built := !rs_version;
               l
             end
           in
           view.step <- Trace.statements trace;
           view.runnable <- schedulable;
           match choose view with
           | None -> raise (Stop Policy_stopped)
           | Some pid ->
             if pid < 0 || pid >= n || sched_mark.(pid) <> !build_id then
               Fmt.invalid_arg "Engine.run: policy %s chose non-runnable %a" policy.name
                 Proc.pp_pid pid;
             cells.(pid)
         end
       in
       (* Wake: advance through the invocation boundary if thinking. *)
       (match c.state with
       | Boundary k ->
         cur := c;
         resume k ()
       | Ready _ | Finished -> ());
       match c.state with
       | Ready (k, op) ->
         exec_stmt c op ~cost:(cost_of c.info.pid op);
         cur := c;
         if batching then chain := chain_max;
         resume k ();
         chain := 0
       | Boundary _ | Finished ->
         (* The wake consumed an empty invocation, or the body finished
            without executing a statement: the decision was a no-op. *)
         ()
     done
   with Stop reason -> stop := reason);
  {
    trace;
    finished = Array.map is_finished cells;
    own_steps = Array.map (fun c -> c.own_steps) cells;
    halted = Array.map (fun c -> (not (is_finished c)) && parked c) cells;
    stop = !stop;
  }
