open Hwf_sim
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint

type instance = {
  programs : (unit -> unit) array;
  check : Engine.result -> (unit, string) result;
}

type scenario = { name : string; config : Config.t; make : unit -> instance }

type counterexample = {
  message : string;
  trace : Trace.t;
  decisions : Proc.pid list;
}

type outcome = {
  runs : int;
  exhaustive : bool;
  counterexample : counterexample option;
  coverage : Resil.coverage;
}

(* ---- sleep-set pruning (dynamic partial-order reduction) ----

   The independence relation, its validity boundary (the [Eff.now]
   taint) and the source-set refinement are described in the interface
   preamble; [dpor_requested] below says when pruning is armed. *)

(* Footprint of one candidate at one decision point. The footprint
   record and the independence judgement live in [Policy] (the view
   layer) since the POS sampler in [Randsched] needs the same notions. *)
type cand = Policy.footprint

(* Sleep sets are pid bitmasks in an [int]; pruning is disabled for
   configurations wider than this (none exist in practice). *)
let max_sleep_pids = 62

let footprint = Policy.footprint

(* The independence relation the pruning runs on. The baseline is
   [Policy.independent]; [Hwf_lint.Indep] derives stronger (still
   sound) relations from static analysis and feeds them in through
   [explore ?relation]. The name is part of the campaign identity: a
   stronger relation changes run counts, so a checkpoint journal
   written under one relation cannot seed a resume under another. *)
type relation = { rname : string; rel : Policy.relation }

let base_relation = { rname = "base"; rel = Policy.independent }

let slept mask pid = mask land (1 lsl pid) <> 0

(* First candidate not in the sleep set, or [-1] when every candidate
   is slept. A fully-slept decision point means every enabled
   transition here is covered by a DFS-earlier sibling subtree — the
   source-set refinement discards the whole prefix instead of
   re-exploring a covered schedule (the pre-source-set fallback was
   "take 0: redundant but sound"). *)
let first_awake cands mask =
  let n = Array.length cands in
  let rec go j =
    if j >= n then -1 else if slept mask cands.(j).Policy.fpid then go (j + 1) else j
  in
  go 0

let no_cands : cand array = [||]

(* One decision point of a completed run: the index chosen among
   [candidates] alternatives, the pid it mapped to, and — when pruning —
   the candidates' footprints plus the sleep set this node was entered
   with (both recomputed from the prefix on every replay, so they are
   pure functions of the prefix and identical across jobs/grain). *)
type slot = {
  choice : int;
  candidates : int;
  pid : Proc.pid;
  cands : cand array;  (* [no_cands] when pruning is off *)
  sleep : int;  (* entry sleep set (pid bitmask); 0 when pruning is off *)
}

(* Search-layer counters (observability; see docs/OBSERVABILITY.md).
   Atomics because subtree DFSs run on pool domains. Off by default:
   without a [stats] argument nothing is allocated or touched. The
   per-root run counts are schedule-deterministic when the search
   completes; the pool counters depend on domain racing and are
   display-only. *)
type stats = {
  subtree_runs : int Atomic.t array;  (* indexed by top-level choice *)
  pruned : int Atomic.t;  (* sibling branches skipped as slept *)
  source_prunes : int Atomic.t;  (* fully-slept prefixes discarded *)
  sampled : int Atomic.t;  (* engine runs performed by [sample] *)
  pool : Hwf_par.Pool.stats;
}

let make_stats ?jobs scenario =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Hwf_par.Pool.default_jobs ()
  in
  {
    subtree_runs = Array.init (max 1 (Config.n scenario.config)) (fun _ -> Atomic.make 0);
    pruned = Atomic.make 0;
    source_prunes = Atomic.make 0;
    sampled = Atomic.make 0;
    pool = Hwf_par.Pool.make_stats ~jobs;
  }

let stats_subtree_runs s = Array.map Atomic.get s.subtree_runs
let stats_pruned s = Atomic.get s.pruned
let stats_source_prunes s = Atomic.get s.source_prunes
let stats_sampled s = Atomic.get s.sampled
let stats_pool s = s.pool

let record_run stats slots =
  match stats with
  | None -> ()
  | Some s ->
    if Vec.length slots > 0 then begin
      let c = (Vec.get slots 0).choice in
      if c < Array.length s.subtree_runs then
        ignore (Atomic.fetch_and_add s.subtree_runs.(c) 1)
    end

let record_pruned stats k =
  match stats with
  | Some s when k > 0 -> ignore (Atomic.fetch_and_add s.pruned k)
  | Some _ | None -> ()

let pool_of stats = Option.map (fun s -> s.pool) stats

let verdict ~on_step_limit instance (result : Engine.result) =
  match Wellformed.check result.trace with
  | v :: _ ->
    Error (Fmt.str "engine produced ill-formed trace: %a" Wellformed.pp_violation v)
  | [] -> (
    match (result.stop, on_step_limit) with
    | Engine.Step_limit, `Fail -> Error "step limit hit (possible non-termination)"
    | Engine.Decision_limit, `Fail ->
      Error "decision limit hit (statement-free spin; possible non-termination)"
    | (Engine.Step_limit | Engine.Decision_limit | Engine.All_finished
      | Engine.Policy_stopped | Engine.All_halted), _ ->
      instance.check result)

(* ---- per-worker scratch arenas ----

   A worker performs thousands of engine runs; the trace event buffer
   and the decision stack dominate its allocation. Each pool worker
   keeps one arena (created on its own domain via [Pool.map_scratch])
   and reuses both buffers across runs. The trace must be severed from
   the arena whenever it escapes into a result that outlives the run —
   a counterexample. *)
type arena = { mutable atrace : Trace.t option; aslots : slot Vec.t }

let make_arena () = { atrace = None; aslots = Vec.create () }

let arena_trace arena config =
  match arena.atrace with
  | Some t -> t
  | None ->
    let t = Trace.create config in
    arena.atrace <- Some t;
    t

let sever arena = arena.atrace <- None

(* Run one schedule: follow [prefix] (indices into the candidate lists),
   then always take the first non-slept index (index 0 when pruning is
   off). Records the decision slots taken; with [dpor] also recomputes
   the sleep sets along the path — a pure function of the prefix, which
   is what keeps checkpoint/resume and the parallel fan-out oblivious
   to pruning. Returns [(result, slots, truncated, tainted, blocked)];
   [tainted] is true when the program read the global statement clock
   ([Eff.now]), which invalidates the independence relation; [blocked]
   is true when the run was cut off at a fully-slept decision point
   (every enabled transition covered by an earlier sibling subtree), in
   which case the prefix must be discarded without a verdict check. *)
let run_one ~dpor ~relation ~preemption_bound ~max_depth ~step_limit ~config ~arena
    instance prefix =
  let slots = arena.aslots in
  Vec.clear slots;
  let depth = ref 0 in
  let prev = ref (-1) in
  let budget = ref (match preemption_bound with None -> max_int | Some b -> b) in
  let truncated = ref false in
  let blocked = ref false in
  let sleep = ref 0 in
  let independent = relation.rel in
  let choose (view : Policy.view) =
    let r = view.runnable in
    let preferred = if List.mem !prev r then Some !prev else None in
    let candidates =
      match preferred with
      | Some p when !budget = 0 -> [ p ]
      | Some p -> p :: List.filter (fun q -> q <> p) r
      | None -> r
    in
    let cands =
      if dpor then Array.of_list (List.map (footprint view) candidates)
      else no_cands
    in
    let d = !depth in
    incr depth;
    let idx =
      if d < Array.length prefix then prefix.(d)
      else begin
        if d >= max_depth then truncated := true;
        if dpor && !sleep <> 0 then first_awake cands !sleep else 0
      end
    in
    if idx < 0 then begin
      (* Fully-slept decision point: every enabled transition is covered
         by a DFS-earlier sibling. Stop the run (Policy_stopped) — the
         caller discards the prefix without a verdict check. *)
      blocked := true;
      None
    end
    else begin
      let idx = if idx < List.length candidates then idx else 0 in
      let pick = List.nth candidates idx in
      let n = if d >= max_depth then 1 else List.length candidates in
      Vec.push slots { choice = idx; candidates = n; pid = pick; cands; sleep = !sleep };
      if dpor then begin
        (* Child sleep set: of the processes slept here or explored as
           earlier siblings, those independent of the taken transition
           still have their (unchanged) transition covered elsewhere. *)
        let taken = cands.(idx) in
        let z = ref 0 in
        Array.iteri
          (fun j c ->
            if (j < idx || slept !sleep c.Policy.fpid) && independent c taken then
              z := !z lor (1 lsl c.Policy.fpid))
          cands;
        sleep := !z
      end;
      (match preferred with
      | Some p when pick <> p -> decr budget
      | Some _ | None -> ());
      prev := pick;
      Some pick
    end
  in
  let policy = Policy.of_fun "explore" choose in
  let trace_buf = arena_trace arena config in
  let result = Engine.run ~step_limit ~trace_buf ~config ~policy instance.programs in
  (result, slots, !truncated, Trace.now_reads result.trace > 0, !blocked)

(* Deepest slot with an unexplored, non-slept sibling. With [dpor],
   siblings in the slot's entry sleep set are skipped — their subtrees
   are covered by the sibling that put them to sleep — and each skip is
   counted through [stats] (a state is abandoned exactly once, so no
   skip is double-counted). *)
let backtrack ~dpor ?stats slots =
  let n = Vec.length slots in
  let next_choice (s : slot) =
    let rec go j skipped =
      if j < s.candidates && dpor && slept s.sleep s.cands.(j).Policy.fpid then
        go (j + 1) (skipped + 1)
      else begin
        record_pruned stats skipped;
        if j < s.candidates then Some j else None
      end
    in
    go (s.choice + 1) 0
  in
  let rec find i =
    if i < 0 then None
    else
      let s = Vec.get slots i in
      match next_choice s with Some c -> Some (i, c) | None -> find (i - 1)
  in
  match find (n - 1) with
  | None -> None
  | Some (i, c) ->
    let prefix = Array.make (i + 1) 0 in
    for j = 0 to i - 1 do
      prefix.(j) <- (Vec.get slots j).choice
    done;
    prefix.(i) <- c;
    Some prefix

(* ---- the search driver (see docs/PARALLELISM.md, docs/ROBUSTNESS.md) ----

   Every search — [explore] and [iter_schedules], at any [jobs] and
   [grain], with or without a checkpoint — runs the same way. One probe
   run (the all-defaults schedule; sleep sets stay empty along it, so it
   is the same schedule with pruning armed or not) reveals the top-level
   width and whether the scenario reads the global clock. Each top-level
   candidate index then roots one subtree cell, the DFS runs unchanged
   inside each (backtracking never crosses slot 0), and the cells are
   merged in index order. Because the DFS visits subtree 0 in full,
   then subtree 1, ... — [backtrack] increments slot 0 only when no
   deeper slot has unexplored siblings — the merge reproduces the
   one-domain run order exactly. The probe is subtree 0's first run:
   cell 0 consumes it rather than re-running it. Sleep sets do not
   disturb the decomposition: they are recomputed from the prefix
   alone, so subtree [i]'s pruning is the same on any domain, after any
   other subtree, or after a resume. *)

let tainted_msg =
  "Explore.explore: the program read the global statement clock (Eff.now) on \
   some schedules only, which invalidates sleep-set pruning; re-run with \
   ~dpor:false (--no-dpor)"

(* Outcome of one cell. [sruns] counts verdict-checked runs; on a
   counterexample the cell stops, so [sruns] is also the canonical "runs
   until failure" of that cell. *)
type subtree = { sruns : int; sexhaustive : bool; scx : counterexample option }

let pids_of slots = List.map (fun s -> s.pid) (Vec.to_list slots)

(* DFS of the subtree rooted at top-level choice [root]; [first], when
   given, is its already-performed (and already claimed) first run.
   [claim] is the global max_runs budget — one claim per
   engine run, so the runs across all domains never exceed [max_runs].
   [aborted] retires the cell (a lower-indexed cell has failed, a stop
   was requested, or the cell's deadline expired). [judge] is the
   per-run verdict; an [Error] is a counterexample and stops the cell. *)
let subtree_dfs ~dpor ~relation ~claim ~aborted ~stats ~preemption_bound ~max_depth
    ~step_limit ~judge ~root ?first ~arena scenario =
  let runs = ref 0 in
  let exhaustive = ref true in
  let rec loop ?pre prefix =
    if aborted () || (Option.is_none pre && not (claim ())) then
      { sruns = !runs; sexhaustive = false; scx = None }
    else begin
      let instance, (result, slots, truncated, tainted, blocked) =
        match pre with
        | Some run -> run
        | None ->
          let instance = scenario.make () in
          ( instance,
            run_one ~dpor ~relation ~preemption_bound ~max_depth ~step_limit
              ~config:scenario.config ~arena instance prefix )
      in
      if tainted && dpor then invalid_arg tainted_msg;
      if truncated then exhaustive := false;
      let verdict =
        if blocked then begin
          (* Source-set prune: the prefix ran into a fully-slept decision
             point, so every completion of it is Mazurkiewicz-equivalent
             to a schedule in a DFS-earlier subtree. Discard it without a
             verdict check (the run is incomplete by construction) and
             keep backtracking from the decisions gathered so far. *)
          Option.iter (fun s -> Atomic.incr s.source_prunes) stats;
          Ok ()
        end
        else begin
          incr runs;
          record_run stats slots;
          judge instance result slots
        end
      in
      match verdict with
      | Error message ->
        let decisions = pids_of slots in
        sever arena;
        {
          sruns = !runs;
          sexhaustive = false;
          scx = Some { message; trace = result.trace; decisions };
        }
      | Ok () -> (
        match backtrack ~dpor ?stats slots with
        | Some prefix when prefix.(0) = root -> loop prefix
        | Some _ | None -> { sruns = !runs; sexhaustive = !exhaustive; scx = None })
    end
  in
  loop ?pre:first [| root |]

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

(* Evaluate cells [0, n) on the pool and merge them canonically: walk
   the cells in index order — the order a one-domain search visits them
   — summing runs up to the first counterexample. A cell without a
   result (timed out, errored, skipped) also ends the merge: a
   counterexample found after a gap cannot be called canonical, so the
   gap truncates the merge and coverage reports the rest. [cell
   ~lower_failed arena i] computes cell [i]; [lower_failed ()] turns true
   once a lower-indexed cell has failed, after which cell [i]'s work
   would be discarded by the merge. *)
let run_cells ~jobs ~grain ~stats n cell =
  let best = Atomic.make max_int in
  let cells =
    Hwf_par.Pool.map_scratch ~jobs ?grain ?stats:(pool_of stats) ~make:make_arena
      (fun arena i ->
        let c = cell ~lower_failed:(fun () -> Atomic.get best < i) arena i in
        (match c.Resil.outcome with
        | Resil.Ok_cell { scx = Some _; _ } -> atomic_min best i
        | Resil.Ok_cell _ | Resil.Timed_out _ | Resil.Errored _ | Resil.Skipped _ -> ());
        c)
      (Array.init n Fun.id)
  in
  let total = ref 0 and exhaustive = ref true and cx = ref None in
  (try
     Array.iter
       (fun cell ->
         match cell.Resil.outcome with
         | Resil.Ok_cell st -> (
           total := !total + st.sruns;
           if not st.sexhaustive then exhaustive := false;
           match st.scx with
           | Some c ->
             cx := Some c;
             raise Exit
           | None -> ())
         | Resil.Timed_out _ | Resil.Errored _ | Resil.Skipped _ ->
           exhaustive := false;
           raise Exit)
       cells
   with Exit -> ());
  {
    runs = !total;
    exhaustive = !exhaustive && !cx = None;
    counterexample = !cx;
    coverage = Resil.coverage_of_cells cells;
  }

(* Pruning is requested by default but only armed when the relation is
   valid: never under a preemption bound (the candidate lists are then
   restricted, breaking the "explored or slept" invariant) and never for
   configurations too wide for the bitmask. The probe run decides the
   rest: a probe that read the global clock ([Eff.now] — every
   history-recording scenario does, on every run) disarms pruning for
   the whole search. A clock read appearing only on a {e later} schedule
   is an error ([tainted_msg]); it cannot hide behind pruning, because a
   pruned schedule executes the same per-process statement sequences as
   the explored schedule that covers it. *)
let dpor_requested ~dpor ~preemption_bound scenario =
  dpor && preemption_bound = None && Config.n scenario.config <= max_sleep_pids

(* ---- checkpoint payloads ----

   One [hwf-ckpt/1] record per subtree cell; grain only groups cells
   for distribution, so a resumed campaign is byte-identical at every
   grain. [msg] is last: counterexample messages may contain any
   character (the journal layer JSON-escapes; this layer only needs an
   unambiguous last field). *)

let payload_of_subtree st =
  match st.scx with
  | None ->
    Printf.sprintf "runs=%d;exh=%d;cx=none" st.sruns (if st.sexhaustive then 1 else 0)
  | Some c ->
    Printf.sprintf "runs=%d;exh=0;cx=%s;msg=%s" st.sruns
      (Checkpoint.pids_to_string c.decisions)
      c.message

(* A restored counterexample's trace is reconstructed by replaying its
   decision sequence (scripted policy, deterministic fallback) — the
   same mechanism Schedule.replay uses. *)
let replay_decisions ~step_limit scenario decisions message =
  let instance = scenario.make () in
  let policy = Policy.scripted ~fallback:Policy.first decisions in
  let result = Engine.run ~step_limit ~config:scenario.config ~policy instance.programs in
  { message; trace = result.trace; decisions }

let subtree_of_payload ~step_limit scenario payload =
  let ( let* ) = Option.bind in
  let* head, tail = Checkpoint.cut ~sep:";cx=" payload in
  let* sruns, sexh =
    match String.split_on_char ';' head with
    | [ r; e ] ->
      let* r = Checkpoint.int_field "runs" r in
      let* e = Checkpoint.int_field "exh" e in
      Some (r, e = 1)
    | _ -> None
  in
  if tail = "none" then Some { sruns; sexhaustive = sexh; scx = None }
  else
    let* sched, message = Checkpoint.cut ~sep:";msg=" tail in
    let* decisions = Checkpoint.pids_of_string sched in
    Some
      {
        sruns;
        sexhaustive = false;
        scx = Some (replay_decisions ~step_limit scenario decisions message);
      }

(* [dpor] is the {e armed} value (after the probe's taint decision): it
   changes run counts, so it is part of the campaign identity — a
   journal written with pruning cannot seed a resume without it. *)
let campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~max_depth ~step_limit
    ~on_step_limit scenario =
  let params =
    Printf.sprintf "%s|pb=%s|runs=%d|depth=%d|steps=%d|osl=%s|dpor=%b|rel=%s"
      scenario.name
      (match preemption_bound with None -> "-" | Some b -> string_of_int b)
      max_runs max_depth step_limit
      (match on_step_limit with `Fail -> "fail" | `Ignore -> "ignore")
      dpor relation.rname
  in
  Printf.sprintf "explore/%s/%s" scenario.name (Digest.to_hex (Digest.string params))

(* The search itself. [journal], when given, is [(path, resume)]: the
   checkpoint hook, opened once the probe has fixed the width and the
   armed [dpor] that the campaign id names. *)
let search ~preemption_bound ~max_runs ~max_depth ~step_limit ~on_step_limit ~jobs ~grain
    ~dpor ~relation ~stats ~cell_wall_s ~journal ~should_stop ~judge scenario =
  let dpor_req = dpor_requested ~dpor ~preemption_bound scenario in
  let probe_instance = scenario.make () in
  let probe =
    run_one ~dpor:dpor_req ~relation ~preemption_bound ~max_depth ~step_limit
      ~config:scenario.config ~arena:(make_arena ()) probe_instance [||]
  in
  let _, probe_slots, _, probe_tainted, _ = probe in
  let dpor = dpor_req && not probe_tainted in
  let width =
    if Vec.length probe_slots = 0 then 1 else max 1 (Vec.get probe_slots 0).candidates
  in
  let restored = Hashtbl.create 8 in
  let journal =
    Option.map
      (fun (path, resume) ->
        let campaign =
          campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~max_depth ~step_limit
            ~on_step_limit scenario
        in
        match Checkpoint.open_ ~path ~campaign ~cells:width ~resume with
        | Error msg -> invalid_arg ("Explore.explore: " ^ msg)
        | Ok (t, entries) ->
          List.iter
            (fun (e : Checkpoint.entry) ->
              if e.idx >= 0 && e.idx < width then
                match subtree_of_payload ~step_limit scenario e.payload with
                | Some st -> Hashtbl.replace restored e.idx st
                | None -> ())
            entries;
          t)
      journal
  in
  (* Seed the budget with the journaled work, so a resumed search claims
     only the remaining runs. *)
  let claimed = Atomic.make (Hashtbl.fold (fun _ st acc -> acc + st.sruns) restored 0) in
  let claim () =
    Atomic.get claimed < max_runs && Atomic.fetch_and_add claimed 1 < max_runs
  in
  (* The probe is subtree 0's first run: claimed here, before any cell
     can race for the budget, unless subtree 0 is restored. *)
  let probe_claimed = (not (Hashtbl.mem restored 0)) && claim () in
  let stopping () = should_stop () || Resil.interrupted () in
  let deadline_for ~attempt:_ =
    match cell_wall_s with
    | None -> Resil.no_deadline
    | Some s -> Resil.deadline ~wall_s:s ()
  in
  let eval ~lower_failed arena i deadline =
    (* Watchdog demotion: an expired deadline retires the subtree with a
       partial, non-exhaustive result instead of hanging. *)
    let aborted () = lower_failed () || stopping () || Resil.expired deadline in
    let first = if i = 0 && probe_claimed then Some (probe_instance, probe) else None in
    let st =
      subtree_dfs ~dpor ~relation ~claim ~aborted ~stats ~preemption_bound ~max_depth
        ~step_limit ~judge ~root:i ?first ~arena scenario
    in
    (* Journal only untainted cells: a cell cut short by an interrupt or
       stop request must re-run on resume, not restore partial. *)
    (match journal with
    | Some t when not (stopping ()) ->
      Checkpoint.record t ~idx:i
        ~key:(Printf.sprintf "subtree-%d" i)
        ~payload:(payload_of_subtree st)
    | Some _ | None -> ());
    st
  in
  let outcome =
    run_cells ~jobs ~grain ~stats width (fun ~lower_failed arena i ->
        match Hashtbl.find_opt restored i with
        | Some st -> { Resil.outcome = Resil.Ok_cell st; attempts = 1 }
        | None when stopping () ->
          { Resil.outcome = Resil.Skipped "interrupted"; attempts = 0 }
        | None -> (
          let f = eval ~lower_failed arena i in
          match journal with
          | Some _ -> Resil.run_cell ~deadline_for f
          | None ->
            (* Without a journal an exception escaping a subtree (a bug in
               a process body, a latent clock read) propagates — lowest
               subtree first — instead of being contained as an errored
               cell: nothing would record it, and it must not pass for a
               verdict. *)
            { Resil.outcome = Resil.Ok_cell (f (deadline_for ~attempt:1)); attempts = 1 }))
  in
  Option.iter Checkpoint.close journal;
  outcome

let explore ?preemption_bound ?(max_runs = 200_000) ?(max_depth = 10_000)
    ?(step_limit = 100_000) ?(on_step_limit = `Fail) ?(jobs = 1) ?grain
    ?(dpor = true) ?(relation = base_relation) ?stats ?cell_wall_s ?checkpoint
    ?(resume = false) ?(should_stop = fun () -> false) scenario =
  search ~preemption_bound ~max_runs ~max_depth ~step_limit ~on_step_limit ~jobs ~grain
    ~dpor ~relation ~stats ~cell_wall_s
    ~journal:(Option.map (fun path -> (path, resume)) checkpoint)
    ~should_stop
    ~judge:(fun instance result _ -> verdict ~on_step_limit instance result)
    scenario

let iter_schedules ?preemption_bound ?(max_runs = 200_000) ?(max_depth = 10_000)
    ?(step_limit = 100_000) scenario ~f =
  (* Deliberately unpruned: callers (Bivalence) reason about the full
     schedule enumeration, not a reduced one. One domain, so [f] may be
     stateful; a [`Stop] ends the search like a counterexample. *)
  let judge _ result slots =
    match f ~pids:(pids_of slots) result with `Continue -> Ok () | `Stop -> Error "stopped"
  in
  (search ~preemption_bound ~max_runs ~max_depth ~step_limit ~on_step_limit:`Ignore ~jobs:1
     ~grain:None ~dpor:false ~relation:base_relation ~stats:None ~cell_wall_s:None ~journal:None
     ~should_stop:(fun () -> false) ~judge scenario)
    .runs

(* Per-run seed derivation for sampling campaigns, exposed for the
   regression test that adjacent campaign seeds stay disjoint. *)
let run_seed = Randsched.mix

(* Wrap a policy so the decisions it takes (the schedule) are recorded:
   a sampled counterexample then carries a replayable decision list and
   flows through the ordinary [Schedule]/[Shrink] pipeline. *)
let record_decisions policy decisions =
  Policy.of_factory policy.Policy.name (fun () ->
      let choose = Policy.prepare policy in
      fun view ->
        match choose view with
        | Some pid as r ->
          decisions := pid :: !decisions;
          r
        | None -> None)

let sample ?(runs = 1_000) ?(step_limit = 100_000) ?(on_step_limit = `Fail)
    ?(jobs = 1) ?grain ?stats ?runner ~strategy ~seed scenario =
  let profile, horizon =
    (* SURW weights candidates by estimated remaining statements and PCT
       draws change points over a schedule-length horizon; both
       estimates come from one deterministic pilot run, computed before
       the cells so run [i] stays a pure function of [run_seed seed i]. *)
    match strategy with
    | Randsched.Naive | Randsched.Pos -> (None, None)
    | Randsched.Pct _ | Randsched.Surw ->
      let instance = scenario.make () in
      let result =
        Engine.run ~step_limit ~config:scenario.config
          ~policy:(Policy.round_robin ()) instance.programs
      in
      let total = Array.fold_left ( + ) 0 result.own_steps in
      (Some result.own_steps, Some (max 16 total))
  in
  let one arena i =
    let instance = scenario.make () in
    let decisions = ref [] in
    let policy =
      record_decisions
        (Randsched.policy ?horizon ?profile strategy
           ~seed:(run_seed seed i))
        decisions
    in
    let result =
      match runner with
      | None ->
        let trace_buf = arena_trace arena scenario.config in
        Engine.run ~step_limit ~trace_buf ~config:scenario.config ~policy
          instance.programs
      | Some f -> f ~step_limit ~policy instance
    in
    Option.iter (fun s -> Atomic.incr s.sampled) stats;
    match verdict ~on_step_limit instance result with
    | Error message ->
      sever arena;
      Some { message; trace = result.trace; decisions = List.rev !decisions }
    | Ok () -> None
  in
  (* Run [i] is fully determined by [run_seed seed i] (a splitmix-style
     hash — the earlier [seed + i] scheme made adjacent campaign seeds
     share all but one of their runs), so every run is its own cell and
     the canonical merge reports the lowest-index failure. Cells after a
     known failure are skipped; cells before it still run, so the
     minimum failing index is exact. *)
  let o =
    run_cells ~jobs ~grain ~stats runs (fun ~lower_failed arena i ->
        let st =
          if lower_failed () then { sruns = 0; sexhaustive = false; scx = None }
          else { sruns = 1; sexhaustive = false; scx = one arena i }
        in
        { Resil.outcome = Resil.Ok_cell st; attempts = 1 })
  in
  { o with exhaustive = false }

(* Exact (Clopper–Pearson-style) confidence interval on
   schedules-to-first-bug from a geometric observation: the first bug at
   run [k] inverts P(X <= k) resp. P(X >= k) at alpha/2; no bug in [n]
   runs gives the one-sided "rule of three" bound. *)
let stf_ci ?(level = 0.95) (o : outcome) =
  let alpha = 1.0 -. level in
  match o.counterexample with
  | Some _ ->
    let k = float_of_int (max 1 o.runs) in
    let p_lo = 1.0 -. ((1.0 -. (alpha /. 2.0)) ** (1.0 /. k)) in
    let p_hi =
      if o.runs <= 1 then 1.0 else 1.0 -. ((alpha /. 2.0) ** (1.0 /. (k -. 1.0)))
    in
    (1.0 /. p_hi, 1.0 /. p_lo)
  | None ->
    if o.runs <= 0 then (0.0, infinity)
    else
      let n = float_of_int o.runs in
      let p_hi = 1.0 -. (alpha ** (1.0 /. n)) in
      (1.0 /. p_hi, infinity)

let pp_outcome ppf o =
  (match o.counterexample with
  | None ->
    Fmt.pf ppf "OK after %d runs%s" o.runs
      (if o.exhaustive then " (exhaustive)" else "")
  | Some c -> Fmt.pf ppf "FAIL after %d runs: %s" o.runs c.message);
  (* Printed only when incomplete: clean-run output is unchanged, and a
     partial result cannot be mistaken for a complete one. *)
  if not (Resil.complete o.coverage) then
    Fmt.pf ppf " [INCOMPLETE coverage: %a]" Resil.pp_coverage o.coverage
