open Hwf_sim
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint
module Json = Hwf_obs.Json

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

   The independence relation, why it holds by construction, and the
   source-set refinement are described in the interface preamble;
   [dpor_requested] below says when pruning is armed. *)

(* Sleep sets are pid bitmasks in an [int]; pruning is disabled for
   configurations wider than this (none exist in practice). *)
let max_sleep_pids = 62

(* The independence relation the pruning runs on. The baseline is
   [Policy.independent]; [Hwf_lint.Indep] derives stronger (still
   sound) relations from static analysis and feeds them in through
   [explore ?relation]. The name is part of the campaign identity: a
   stronger relation changes run counts, so a checkpoint journal
   written under one relation cannot seed a resume under another. *)
type relation = { rname : string; rel : Policy.relation }

let base_relation = { rname = "base"; rel = Policy.independent }

let slept mask pid = mask land (1 lsl pid) <> 0

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

let make_stats ?(jobs = Hwf_par.Pool.default_jobs ()) scenario =
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

let record_pruned stats k =
  match stats with
  | Some s when k > 0 -> ignore (Atomic.fetch_and_add s.pruned k)
  | Some _ | None -> ()

let pool_of stats = Option.map (fun s -> s.pool) stats

(* A run that hits the step or decision limit fails: the scenarios are
   wait-free algorithms, which must terminate under every schedule. *)
let verdict check (result : Engine.result) =
  match Wellformed.check result.trace with
  | v :: _ ->
    Error (Fmt.str "engine produced ill-formed trace: %a" Wellformed.pp_violation v)
  | [] -> (
    match result.stop with
    | Engine.Step_limit -> Error "step limit hit (possible non-termination)"
    | Engine.Decision_limit ->
      Error "decision limit hit (statement-free spin; possible non-termination)"
    | Engine.All_finished | Engine.Policy_stopped | Engine.All_halted -> check result)

(* ---- per-worker scratch arenas ----

   A worker performs thousands of engine runs of thousands of decisions
   each. Everything a decision records goes into the worker's arena,
   into buffers reused across runs, so a decision allocates nothing that
   outlives it. Each pool worker keeps one arena (created on its own
   domain via [Pool.map_scratch]); it holds:

   - the trace event buffer, severed from the arena whenever the trace
     escapes into a result that outlives the run (a counterexample);
   - the decision stack of the current run, one int column per field:
     slot [i] is the run's [i]-th decision;
   - [cands], the candidate pids of every decision of the run, back to
     back, in preference order: slot [i]'s candidates start at
     [off.(i)];
   - the footprint cache, one entry per pid;
   - [log], the decision log of one [sample] run.

   Slot [i]'s candidates, width and entry sleep set are a pure function
   of the choices of slots [0, i), and its pid a function of those and
   its own choice; hence they are identical across jobs and resume. A
   run therefore keeps the previous run's slots over their longest
   common prefix of choices and replays them (see [run_one]) instead of
   recomputing them. *)
type arena = {
  mutable atrace : Trace.t option;
  choice : int Vec.t;  (* index taken among the slot's candidates *)
  width : int Vec.t;  (* candidates the DFS may try (1 past [max_depth]) *)
  pid : int Vec.t;  (* the pid taken *)
  off : int Vec.t;  (* start of the slot's candidates in [cands] *)
  sleep : int Vec.t;  (* entry sleep set (pid bitmask); 0 when pruning is off *)
  cands : int Vec.t;
  (* [fp.(p)] is [Policy.footprint] of the view [fp_view.(p)]. A [pview]
     is immutable, so a physically unchanged view has an unchanged
     footprint; the engine hands back the same record until the
     process's view changes, so most lookups hit. Footprints are needed
     only with pruning armed, hence at most [max_sleep_pids] pids. *)
  fp_view : Policy.pview array;
  fp : Policy.footprint array;
  log : int Vec.t;
}

let no_view : Policy.pview =
  {
    pid = -1;
    processor = -1;
    priority = 0;
    phase = Finished;
    next_op = None;
    own_steps = 0;
    inv_steps = 0;
    inv = 0;
    guarantee = 0;
    pending = false;
  }

let no_fp : Policy.footprint =
  { fpid = -1; fproc = -1; fvar = None; fwrite = true; fknown = false; fop = None }

let make_arena () =
  {
    atrace = None;
    choice = Vec.create ();
    width = Vec.create ();
    pid = Vec.create ();
    off = Vec.create ();
    sleep = Vec.create ();
    cands = Vec.create ();
    fp_view = Array.make max_sleep_pids no_view;
    fp = Array.make max_sleep_pids no_fp;
    log = Vec.create ();
  }

let arena_trace arena config =
  match arena.atrace with
  | Some t -> t
  | None ->
    let t = Trace.create config in
    arena.atrace <- Some t;
    t

let sever arena = arena.atrace <- None

(* Keep slots [0, d) and their candidates. *)
let truncate_slots a d =
  if d < Vec.length a.choice then begin
    Vec.truncate a.cands (Vec.get a.off d);
    Vec.truncate a.choice d;
    Vec.truncate a.width d;
    Vec.truncate a.pid d;
    Vec.truncate a.off d;
    Vec.truncate a.sleep d
  end

let footprint a (view : Policy.view) pid =
  let pv = view.proc pid in
  if a.fp_view.(pid) != pv then begin
    a.fp.(pid) <- Policy.footprint view pid;
    a.fp_view.(pid) <- pv
  end;
  a.fp.(pid)

(* Whether a decision offers the [n] candidates recorded at [off]: [p]
   first when [preferred] (alone when [only_p]), then the pids of
   [runnable] other than [p] — the order the pushes below produce. *)
let same_cands a ~off ~n ~p ~preferred ~only_p runnable =
  let rec others j = function
    | [] -> j = n
    | q :: r ->
      if q = p then others j r
      else j < n && Vec.get a.cands (off + j) = q && others (j + 1) r
  in
  if preferred then n >= 1 && Vec.get a.cands off = p && if only_p then n = 1 else others 1 runnable
  else others 0 runnable

(* Push the pids of [r] other than [p] onto the candidate buffer. *)
let rec push_others a p = function
  | [] -> ()
  | q :: r ->
    if q <> p then Vec.push a.cands q;
    push_others a p r

(* First of the [n] candidates at [off] not in the sleep set, or [-1]
   when every candidate is slept. A fully-slept decision point means
   every enabled transition here is covered by a DFS-earlier sibling
   subtree — the source-set refinement discards the whole prefix instead
   of re-exploring a covered schedule. *)
let rec first_awake a ~off ~n mask j =
  if j >= n then -1
  else if slept mask (Vec.get a.cands (off + j)) then first_awake a ~off ~n mask (j + 1)
  else j

(* Child sleep set: of the processes slept here or explored as earlier
   siblings, those independent of the taken transition still have their
   (unchanged) transition covered elsewhere. *)
let child_sleep a view independent ~off ~n ~idx mask =
  let taken = footprint a view (Vec.get a.cands (off + idx)) in
  let z = ref 0 in
  for j = 0 to n - 1 do
    let q = Vec.get a.cands (off + j) in
    if (j < idx || slept mask q) && independent (footprint a view q) taken then
      z := !z lor (1 lsl q)
  done;
  !z

(* How many recorded slots a run following [prefix] replays: the common
   prefix of [prefix] and the recorded choices, short of the last
   recorded slot (a replayed slot takes its successor's entry sleep
   set). *)
let replayable a prefix =
  let n = min (Array.length prefix) (Vec.length a.choice - 1) in
  let rec go i = if i < n && prefix.(i) = Vec.get a.choice i then go (i + 1) else i in
  go 0

(* Decisions past this depth are taken but not branched on (the search
   reports itself non-exhaustive). *)
let max_depth = 10_000

(* Run one schedule: follow [prefix] (indices into the candidate lists),
   then always take the first non-slept index (index 0 when pruning is
   off). Records the decision slots taken in [arena]; with [dpor] also
   the sleep sets along the path — a pure function of the prefix, which
   is what keeps checkpoint/resume and the parallel fan-out oblivious to
   pruning. The first [k] slots ([replayable]) are the previous run's,
   replayed: such a decision only checks that it offers the recorded
   candidates and takes the recorded pid and the next slot's recorded
   sleep set. From slot [k] on the slots are computed afresh. Returns
   [(result, arena, truncated, blocked)]; [blocked] is true when the
   run was cut off at a fully-slept decision point (every enabled
   transition covered by an earlier sibling subtree), in which case the
   prefix must be discarded without a verdict check. A replayed slot whose candidates the run
   does not offer, a prefix index the run does not offer, or a run that
   ends before its prefix or before slot [k] means [scenario.make] built
   a different program than the run that produced the prefix:
   [Invalid_argument]. *)
let run_one ~dpor ~relation ~preemption_bound ~step_limit ~arena:a scenario
    instance prefix =
  let k = replayable a prefix in
  let depth = ref 0 in
  let prev = ref (-1) in
  let budget = ref (match preemption_bound with None -> max_int | Some b -> b) in
  let truncated = ref false in
  let blocked = ref false in
  let sleep = ref 0 in
  let independent = relation.rel in
  let diverged d what =
    Fmt.invalid_arg
      "Explore: scenario %s diverged on replay at depth %d: %s (its make () must build \
       the same programs on every call)"
      scenario.name d what
  in
  let take d ~preferred p pick =
    if preferred && pick <> p then decr budget;
    prev := pick;
    depth := d + 1;
    Some pick
  in
  let choose (view : Policy.view) =
    (* Candidates: the previous pid first when still runnable (it alone
       once the preemption budget is spent), then [view.runnable]. *)
    let p = !prev in
    let preferred = List.mem p view.runnable in
    let only_p = preferred && !budget = 0 in
    let d = !depth in
    if d < k then begin
      let off = Vec.get a.off d in
      let n = Vec.get a.off (d + 1) - off in
      if not (same_cands a ~off ~n ~p ~preferred ~only_p view.runnable) then
        diverged d "it offers other candidates than the recorded run";
      sleep := Vec.get a.sleep (d + 1);
      take d ~preferred p (Vec.get a.pid d)
    end
    else begin
      truncate_slots a d;
      let off = Vec.length a.cands in
      if preferred then Vec.push a.cands p;
      if not only_p then push_others a p view.runnable;
      let n = Vec.length a.cands - off in
      let idx =
        if d < Array.length prefix then begin
          let i = prefix.(d) in
          if i >= n then diverged d (Printf.sprintf "the prefix takes candidate %d of %d" i n);
          i
        end
        else begin
          if d >= max_depth then truncated := true;
          if dpor && !sleep <> 0 then first_awake a ~off ~n !sleep 0 else 0
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
        let pick = Vec.get a.cands (off + idx) in
        Vec.push a.choice idx;
        Vec.push a.width (if d >= max_depth then 1 else n);
        Vec.push a.pid pick;
        Vec.push a.off off;
        Vec.push a.sleep !sleep;
        if dpor then sleep := child_sleep a view independent ~off ~n ~idx !sleep;
        take d ~preferred p pick
      end
    end
  in
  let policy = Policy.of_fun "explore" choose in
  let trace_buf = arena_trace a scenario.config in
  let result =
    Engine.run ~step_limit ~trace_buf ~config:scenario.config ~policy instance.programs
  in
  (* A run following [prefix] makes every decision of the recorded run
     with the same choices: through the end of [prefix], and through
     slot [k], whose fresh computation drops the recorded slots past it. *)
  if !depth < Array.length prefix || Vec.length a.choice > !depth then
    diverged !depth "the run ended where the recorded run went on";
  (result, a, !truncated, !blocked)

let record_run stats (a : arena) =
  match stats with
  | None -> ()
  | Some s ->
    if Vec.length a.choice > 0 then begin
      let c = Vec.get a.choice 0 in
      if c < Array.length s.subtree_runs then
        ignore (Atomic.fetch_and_add s.subtree_runs.(c) 1)
    end

(* The next sibling of slot [i] to explore, or [-1]. With [dpor],
   siblings in the slot's entry sleep set are skipped — their subtrees
   are covered by the sibling that put them to sleep — and each skip is
   counted through [stats] (a state is abandoned exactly once, so no
   skip is double-counted). *)
let next_choice ~dpor ~stats a i =
  let width = Vec.get a.width i and mask = Vec.get a.sleep i and off = Vec.get a.off i in
  let rec go j skipped =
    if j < width && dpor && slept mask (Vec.get a.cands (off + j)) then
      go (j + 1) (skipped + 1)
    else begin
      record_pruned stats skipped;
      if j < width then j else -1
    end
  in
  go (Vec.get a.choice i + 1) 0

(* The prefix of the next run: up to the deepest slot with an
   unexplored, non-slept sibling, which it takes. *)
let backtrack ~dpor ?stats a =
  let rec find i =
    if i < 0 then None
    else
      let c = next_choice ~dpor ~stats a i in
      if c >= 0 then Some (i, c) else find (i - 1)
  in
  match find (Vec.length a.choice - 1) with
  | None -> None
  | Some (i, c) ->
    let prefix = Array.make (i + 1) 0 in
    for j = 0 to i - 1 do
      prefix.(j) <- Vec.get a.choice j
    done;
    prefix.(i) <- c;
    Some prefix

(* ---- the search driver (see docs/PARALLELISM.md, docs/ROBUSTNESS.md) ----

   Every search — [explore] and [iter_schedules], at any [jobs], with
   or without a checkpoint — runs the same way. One probe run (the
   all-defaults schedule; sleep sets stay empty along it, so it is the
   same schedule with pruning armed or not) reveals the top-level
   width. Each top-level candidate index then roots one subtree cell,
   the DFS runs unchanged inside each (backtracking never crosses slot
   0), and the cells are merged in index order. Because the DFS visits subtree 0 in full,
   then subtree 1, ... — [backtrack] increments slot 0 only when no
   deeper slot has unexplored siblings — the merge reproduces the
   one-domain run order exactly. The probe is subtree 0's first run:
   cell 0 consumes it rather than re-running it. Sleep sets do not
   disturb the decomposition: they are recomputed from the prefix
   alone, so subtree [i]'s pruning is the same on any domain, after any
   other subtree, or after a resume. *)

(* Outcome of one cell. [sruns] counts verdict-checked runs; on a
   counterexample the cell stops, so [sruns] is also the canonical "runs
   until failure" of that cell. [sclaims] counts the engine runs the
   cell claimed from the [max_runs] budget — its verdict runs plus the
   blocked prefixes it discarded — which is what a resumed search must
   re-seed the budget with. *)
type subtree = {
  sruns : int;
  sclaims : int;
  sexhaustive : bool;
  scx : counterexample option;
}

let pids_of a = Vec.to_list a.pid

(* DFS of the subtree rooted at top-level choice [root]; [first], when
   given, is its already-performed (and already claimed) first run — the
   probe, whose slots stay in the probe's own arena: each run's slots,
   candidate offsets included, are read back from the arena that ran it
   ([ran]), never from another.
   [claim] is the global max_runs budget — one claim per
   engine run, so the runs across all domains never exceed [max_runs].
   [aborted] retires the cell (a lower-indexed cell has failed, a stop
   was requested, or the cell's deadline expired). [judge] is the
   per-run verdict; an [Error] is a counterexample and stops the cell. *)
let subtree_dfs ~dpor ~relation ~claim ~aborted ~stats ~preemption_bound ~step_limit
    ~judge ~root ?first ~arena scenario =
  let runs = ref 0 and claims = ref 0 in
  let exhaustive = ref true in
  let rec loop ?pre prefix =
    if aborted () || (Option.is_none pre && not (claim ())) then
      { sruns = !runs; sclaims = !claims; sexhaustive = false; scx = None }
    else begin
      incr claims;
      let instance, (result, ran, truncated, blocked) =
        match pre with
        | Some run -> run
        | None ->
          let instance = scenario.make () in
          ( instance,
            run_one ~dpor ~relation ~preemption_bound ~step_limit ~arena scenario
              instance prefix )
      in
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
          record_run stats ran;
          judge instance result ran
        end
      in
      match verdict with
      | Error message ->
        let decisions = pids_of ran in
        sever ran;
        {
          sruns = !runs;
          sclaims = !claims;
          sexhaustive = false;
          scx = Some { message; trace = result.trace; decisions };
        }
      | Ok () -> (
        match backtrack ~dpor ?stats ran with
        | Some prefix when prefix.(0) = root -> loop prefix
        | Some _ | None ->
          { sruns = !runs; sclaims = !claims; sexhaustive = !exhaustive; scx = None })
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
let run_cells ~jobs ~stats n cell =
  let best = Atomic.make max_int in
  let cells =
    Hwf_par.Pool.map_scratch ~jobs ?stats:(pool_of stats) ~make:make_arena
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

(* Pruning is requested by default and armed unless the sleep-set
   invariant cannot hold: never under a preemption bound (the candidate
   lists are then restricted, breaking the "explored or slept"
   invariant) and never for configurations too wide for the bitmask. *)
let dpor_requested ~dpor ~preemption_bound scenario =
  dpor && preemption_bound = None && Config.n scenario.config <= max_sleep_pids

(* ---- checkpoint payloads ----

   One [hwf-ckpt/2] record per subtree cell, so a resumed campaign is
   byte-identical at every jobs. *)

let json_of_subtree st =
  let cx c =
    Json.Obj [ ("decisions", Checkpoint.pids c.decisions); ("message", Json.Str c.message) ]
  in
  Json.Obj
    [
      ("runs", Json.Int st.sruns);
      ("claims", Json.Int st.sclaims);
      ("exhaustive", Json.Bool st.sexhaustive);
      ("counterexample", Json.option cx st.scx);
    ]

(* A fresh instance run under a decision sequence: scripted, with
   [Policy.first] for any decision the script cannot take. *)
let replay ~step_limit scenario decisions =
  let instance = scenario.make () in
  let policy = Policy.scripted ~fallback:Policy.first decisions in
  (Engine.run ~step_limit ~config:scenario.config ~policy instance.programs, instance)

(* A restored counterexample's trace is rebuilt by replaying its
   journaled decisions. *)
let subtree_of_json ~step_limit scenario v =
  let ( let* ) = Option.bind in
  let* sruns = Json.int_member "runs" v in
  let* sclaims = Json.int_member "claims" v in
  let* sexhaustive = Json.bool_member "exhaustive" v in
  match Json.member "counterexample" v with
  | Some Json.Null -> Some { sruns; sclaims; sexhaustive; scx = None }
  | Some c ->
    let* decisions = Checkpoint.pids_member ~n:(Config.n scenario.config) "decisions" c in
    let* message = Json.string_member "message" c in
    let result, _ = replay ~step_limit scenario decisions in
    Some
      {
        sruns;
        sclaims;
        sexhaustive = false;
        scx = Some { message; trace = result.trace; decisions };
      }
  | None -> None

(* [dpor] is the {e armed} value: it changes run counts, so it is part
   of the campaign identity — a journal written with pruning cannot
   seed a resume without it. *)
let campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~step_limit scenario =
  (* [depth] and [osl] name the fixed depth bound and the failing step
     limit; they stay in the id so older journals still resume. *)
  let params =
    Printf.sprintf "%s|pb=%s|runs=%d|depth=%d|steps=%d|osl=fail|dpor=%b|rel=%s"
      scenario.name
      (match preemption_bound with None -> "-" | Some b -> string_of_int b)
      max_runs max_depth step_limit dpor relation.rname
  in
  Printf.sprintf "explore/%s/%s" scenario.name (Digest.to_hex (Digest.string params))

(* The search itself. The [checkpoint] journal, when given, is opened
   once the probe has fixed the width. *)
let search ~preemption_bound ~max_runs ~step_limit ~jobs ~dpor ~relation ~stats
    ~cell_wall_s ?checkpoint ~resume ~should_stop ~judge scenario =
  let dpor = dpor_requested ~dpor ~preemption_bound scenario in
  let probe_instance = scenario.make () in
  let probe =
    run_one ~dpor ~relation ~preemption_bound ~step_limit ~arena:(make_arena ())
      scenario probe_instance [||]
  in
  let _, probe_arena, _, _ = probe in
  let width =
    if Vec.length probe_arena.width = 0 then 1 else max 1 (Vec.get probe_arena.width 0)
  in
  let campaign () =
    campaign_id ~dpor ~relation ~preemption_bound ~max_runs ~step_limit scenario
  in
  let run journal =
    let restored i = Option.bind journal (fun t -> Checkpoint.restored t i) in
    (* Seed the budget with the journaled claims — verdict runs and
       blocked prefixes alike — so a resumed search claims only the
       remaining runs. *)
    let restored_claims = ref 0 in
    for i = 0 to width - 1 do
      Option.iter (fun st -> restored_claims := !restored_claims + st.sclaims) (restored i)
    done;
    let claimed = Atomic.make !restored_claims in
    let claim () =
      Atomic.get claimed < max_runs && Atomic.fetch_and_add claimed 1 < max_runs
    in
    (* The probe is subtree 0's first run: claimed here, before any cell
       can race for the budget, unless subtree 0 is restored. *)
    let probe_claimed = Option.is_none (restored 0) && claim () in
    let stopping () = should_stop () || Resil.interrupted () in
    let deadline_for ~attempt:_ =
      match cell_wall_s with
      | None -> Resil.no_deadline
      | Some s -> Resil.deadline ~wall_s:s ()
    in
    let eval ~lower_failed arena i deadline =
      (* Watchdog demotion: an expired deadline retires the subtree with
         a partial, non-exhaustive result instead of hanging — and that
         result is journaled. *)
      let aborted () = lower_failed () || stopping () || Resil.expired deadline in
      let first = if i = 0 && probe_claimed then Some (probe_instance, probe) else None in
      subtree_dfs ~dpor ~relation ~claim ~aborted ~stats ~preemption_bound ~step_limit
        ~judge ~root:i ?first ~arena scenario
    in
    run_cells ~jobs ~stats width (fun ~lower_failed arena i ->
        Checkpoint.cell journal ~should_stop i (fun () ->
            let f = eval ~lower_failed arena i in
            match journal with
            | Some _ -> Resil.run_cell ~deadline_for f
            | None ->
              (* Without a journal an exception escaping a subtree (a
                 bug in a process body) propagates — lowest subtree
                 first — instead of being contained as an errored cell:
                 nothing would record it, and it must not pass for a
                 verdict. *)
              { Resil.outcome = Resil.Ok_cell (f (deadline_for ~attempt:1)); attempts = 1 }))
  in
  match
    Checkpoint.with_journal ?path:checkpoint ~resume ~campaign ~cells:width
      ~key:(Printf.sprintf "subtree-%d")
      ~encode:json_of_subtree
      ~decode:(fun _ -> subtree_of_json ~step_limit scenario)
      run
  with
  | Ok outcome -> outcome
  | Error msg -> invalid_arg ("Explore.explore: " ^ msg)

let explore ?preemption_bound ?(max_runs = 200_000) ?(step_limit = 100_000) ?(jobs = 1)
    ?(dpor = true) ?(relation = base_relation) ?stats ?cell_wall_s ?checkpoint
    ?(resume = false) ?(should_stop = fun () -> false) scenario =
  search ~preemption_bound ~max_runs ~step_limit ~jobs ~dpor ~relation ~stats
    ~cell_wall_s ?checkpoint ~resume ~should_stop
    ~judge:(fun instance result _ -> verdict instance.check result)
    scenario

let iter_schedules ?preemption_bound ?(max_runs = 200_000) ?(step_limit = 100_000)
    scenario ~f =
  (* Deliberately unpruned: callers (Bivalence) reason about the full
     schedule enumeration, not a reduced one. One domain, so [f] may be
     stateful; a [`Stop] ends the search like a counterexample. *)
  let judge _ result ran =
    match f ~pids:(pids_of ran) result with `Continue -> Ok () | `Stop -> Error "stopped"
  in
  (search ~preemption_bound ~max_runs ~step_limit ~jobs:1 ~dpor:false
     ~relation:base_relation ~stats:None ~cell_wall_s:None ~resume:false
     ~should_stop:(fun () -> false) ~judge scenario)
    .runs

(* Per-run seed derivation for sampling campaigns, exposed for the
   regression test that adjacent campaign seeds stay disjoint. *)
let run_seed = Randsched.mix

(* Wrap a policy so the decisions it takes (the schedule) are recorded
   into [log]: a sampled counterexample then carries a replayable
   decision list and flows through the ordinary [Schedule]/[Shrink]
   pipeline. The list is built only for a failing run. *)
let record_decisions policy log =
  Policy.of_factory policy.Policy.name (fun () ->
      let choose = Policy.prepare policy in
      fun view ->
        match choose view with
        | Some pid as r ->
          Vec.push log pid;
          r
        | None -> None)

let sample ?(runs = 1_000) ?(step_limit = 100_000) ?(jobs = 1) ?stats ?runner
    ~strategy ~seed scenario =
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
    Vec.clear arena.log;
    let policy =
      record_decisions
        (Randsched.policy ?horizon ?profile strategy
           ~seed:(run_seed seed i))
        arena.log
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
    match verdict instance.check result with
    | Error message ->
      sever arena;
      Some { message; trace = result.trace; decisions = Vec.to_list arena.log }
    | Ok () -> None
  in
  (* Run [i] is fully determined by [run_seed seed i] (a splitmix-style
     hash — the earlier [seed + i] scheme made adjacent campaign seeds
     share all but one of their runs), so every run is its own cell and
     the canonical merge reports the lowest-index failure. Cells after a
     known failure are skipped; cells before it still run, so the
     minimum failing index is exact. *)
  let o =
    run_cells ~jobs ~stats runs (fun ~lower_failed arena i ->
        let st =
          if lower_failed () then
            { sruns = 0; sclaims = 0; sexhaustive = false; scx = None }
          else { sruns = 1; sclaims = 1; sexhaustive = false; scx = one arena i }
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
