open Hwf_sim
open Hwf_adversary
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint

type instance = {
  programs : (unit -> unit) array;
  check : survivors:Proc.pid list -> Engine.result -> (unit, string) result;
}

type subject = {
  name : string;
  config : Config.t;
  policy : unit -> Policy.t;
  make : unit -> instance;
  step_bound : int;
  bound_desc : string;
  step_limit : int;
}

type verdict = Pass of { blocked : bool } | Fail of string

type failure = {
  plan : Plan.t;
  message : string;
  schedule : Schedule.t;
  shrunk_from : int;
}

type report = {
  subject : string;
  bound_desc : string;
  plans : int;
  passed : int;
  blocked : int;
  worst_own_steps : int;
  failures : failure list;
  coverage : Resil.coverage;
}

let solo_own_steps subject =
  let inst = subject.make () in
  let r =
    Inject.run ~step_limit:subject.step_limit ~plan:Plan.none ~config:subject.config
      ~policy:(subject.policy ()) inst.programs
  in
  r.Engine.own_steps

let judge subject (inst : instance) (r : Engine.result) =
  let config = subject.config in
  let n = Config.n config in
  match Wellformed.check r.trace with
  | v :: _ -> Fail (Fmt.str "ill-formed trace: %a" Wellformed.pp_violation v)
  | [] ->
    if r.stop = Engine.Step_limit then Fail "step limit hit (possible non-termination)"
    else if r.stop = Engine.Decision_limit then
      Fail "decision limit hit (statement-free spin; possible non-termination)"
    else begin
      let procs = config.Config.procs in
      (* The model caveat of halting failures under Axiom 1: a parked
         victim stays ready, so it permanently blocks strictly
         lower-priority processes on its processor. Such survivors are
         excused (the scheduler, not the algorithm, is starving them).
         Equal-priority survivors are never excused — guarantees drain
         before a victim parks, so Axiom 1 lets them run. *)
      let blocked_by_victim p =
        let me = procs.(p) in
        let ok = ref false in
        Array.iteri
          (fun q hq ->
            if
              hq
              && procs.(q).Proc.processor = me.Proc.processor
              && procs.(q).Proc.priority > me.Proc.priority
            then ok := true)
          r.halted;
        !ok
      in
      let unexcused = ref [] and blocked = ref false in
      for p = n - 1 downto 0 do
        if (not r.finished.(p)) && not r.halted.(p) then
          if blocked_by_victim p then blocked := true else unexcused := p :: !unexcused
      done;
      match !unexcused with
      | p :: _ ->
        Fail
          (Fmt.str
             "survivor p%d did not finish (and no halted higher-priority victim blocks it)"
             (p + 1))
      | [] -> (
        let over = ref [] in
        Array.iteri
          (fun p s -> if s > subject.step_bound then over := (p, s) :: !over)
          r.own_steps;
        match !over with
        | (p, s) :: _ ->
          Fail
            (Fmt.str "p%d executed %d own statements, over the wait-freedom bound %d (%s)"
               (p + 1) s subject.step_bound subject.bound_desc)
        | [] -> (
          let survivors = List.filter (fun p -> r.finished.(p)) (List.init n Fun.id) in
          match inst.check ~survivors r with
          | Ok () -> Pass { blocked = !blocked }
          | Error m -> Fail m))
    end

let replay_judge ?observer subject plan schedule =
  let inst = subject.make () in
  let r =
    Inject.replay ~step_limit:subject.step_limit ?observer ~plan ~config:subject.config
      ~schedule inst.programs
  in
  judge subject inst r

let run_plan ?observer subject plan =
  let inst = subject.make () in
  let result, decisions =
    Inject.run_recorded ~step_limit:subject.step_limit ?observer ~plan
      ~config:subject.config ~policy:(subject.policy ()) inst.programs
  in
  (judge subject inst result, result, decisions)

(* One certification cell: everything [certify] needs from one plan's
   run (and, on failure, its shrink). Cells are fully independent — the
   policy is rebuilt per plan from the subject's seed and shrinking
   replays only this cell's plan — so they can be evaluated on any
   domain in any order and folded back in plan order. *)
type cell = Cell_pass of { blocked : bool; worst : int } | Cell_fail of failure * int

let run_cell ~shrink ~max_shrink_rounds ?(deadline = Resil.no_deadline) subject plan =
  (* One guard for the whole cell: the event count and fuel accumulate
     across the initial run and every shrink replay, so the deadline
     bounds the cell, not each engine run separately. *)
  let observer = Resil.guard_observer deadline in
  let verdict, result, decisions = run_plan ~observer subject plan in
  let worst = Array.fold_left max 0 result.Engine.own_steps in
  match verdict with
  | Pass { blocked } -> Cell_pass { blocked; worst }
  | Fail message ->
    let fails sched =
      Resil.check_deadline deadline;
      match replay_judge ~observer subject plan sched with Fail _ -> true | Pass _ -> false
    in
    let schedule =
      if shrink then Shrink.shrink_by ~max_rounds:max_shrink_rounds ~fails decisions
      else decisions
    in
    (* Shrinking may converge on a different failure of the same
       plan; report the message the shrunk schedule actually
       produces. *)
    let message =
      match replay_judge ~observer subject plan schedule with
      | Fail m -> m
      | Pass _ -> message
    in
    Cell_fail ({ plan; message; schedule; shrunk_from = List.length decisions }, worst)

(* ---- checkpoint payloads ----

   One line per completed cell; [msg] is always the last field because
   failure messages may contain any character (the journal layer handles
   JSON escaping; this layer only needs an unambiguous last field). The
   schedule is the raw 0-based pid sequence, space-separated. *)

let payload_of_cell = function
  | Cell_pass { blocked; worst } ->
    Printf.sprintf "pass;blocked=%d;worst=%d" (if blocked then 1 else 0) worst
  | Cell_fail (f, worst) ->
    Printf.sprintf "fail;worst=%d;from=%d;sched=%s;msg=%s" worst f.shrunk_from
      (Checkpoint.pids_to_string f.schedule)
      f.message

let cell_of_payload plan payload =
  let ( let* ) = Option.bind in
  match Checkpoint.strip_prefix ~prefix:"pass;" payload with
  | Some rest -> (
    match String.split_on_char ';' rest with
    | [ b; w ] ->
      let* b = Checkpoint.int_field "blocked" b in
      let* worst = Checkpoint.int_field "worst" w in
      if b = 0 || b = 1 then Some (Cell_pass { blocked = b = 1; worst }) else None
    | _ -> None)
  | None -> (
    let* rest = Checkpoint.strip_prefix ~prefix:"fail;" payload in
    let* fields, message = Checkpoint.cut ~sep:";msg=" rest in
    match String.split_on_char ';' fields with
    | [ w; f; s ] ->
      let* worst = Checkpoint.int_field "worst" w in
      let* shrunk_from = Checkpoint.int_field "from" f in
      let* sched = Checkpoint.strip_prefix ~prefix:"sched=" s in
      let* schedule = Checkpoint.pids_of_string sched in
      Some (Cell_fail ({ plan; message; schedule; shrunk_from }, worst))
    | _ -> None)

let campaign_id subject plans =
  (* Identifies the run's parameters for resume validation: same
     subject and same plan battery, position for position. *)
  Printf.sprintf "certify/%s/%s" subject.name
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map Plan.to_string plans))))

let certify ?(shrink = true) ?(max_shrink_rounds = 200) ?(jobs = 1) ?grain
    ?pool_stats ?(retry = Resil.no_retry) ?cell_wall_s ?checkpoint
    ?(resume = false) ?(should_stop = fun () -> false) ?sleep subject plans =
  let plan_arr = Array.of_list plans in
  let total = Array.length plan_arr in
  let journal, restored =
    match checkpoint with
    | None -> (None, fun _ -> None)
    | Some path -> (
      match
        Checkpoint.open_ ~path ~campaign:(campaign_id subject plans) ~cells:total ~resume
      with
      | Error msg -> invalid_arg ("Certify.certify: " ^ msg)
      | Ok (t, entries) ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (e : Checkpoint.entry) ->
            if e.idx >= 0 && e.idx < total && e.key = Plan.to_string plan_arr.(e.idx) then
              match cell_of_payload plan_arr.(e.idx) e.payload with
              | Some c -> Hashtbl.replace tbl e.idx c
              | None -> ())
          entries;
        (Some t, fun i -> Hashtbl.find_opt tbl i))
  in
  let eval i plan =
    (* Graceful degradation: a cell that exhausts its budget (or hits a
       transient error) re-runs with shrinking demoted off — the shrink
       replays are the expensive part — trading counterexample
       minimality for campaign coverage. *)
    let demoted = ref false in
    let deadline_for ~attempt =
      if attempt > 1 then demoted := true;
      match cell_wall_s with
      | None -> Resil.no_deadline
      | Some s -> Resil.deadline ~wall_s:s ()
    in
    let rc =
      Resil.run_cell ~retry ~deadline_for ?sleep (fun deadline ->
          run_cell ~shrink:(shrink && not !demoted) ~max_shrink_rounds ~deadline subject
            plan)
    in
    (match (journal, rc.Resil.outcome) with
    | Some t, Resil.Ok_cell c ->
      Checkpoint.record t ~idx:i ~key:(Plan.to_string plan) ~payload:(payload_of_cell c)
    | _ -> ());
    rc
  in
  let cells =
    Hwf_par.Pool.map ~jobs ?grain ?stats:pool_stats
      (fun (i, plan) ->
        match restored i with
        | Some c -> { Resil.outcome = Resil.Ok_cell c; attempts = 1 }
        | None ->
          if Resil.interrupted () || should_stop () then
            { Resil.outcome = Resil.Skipped "interrupted"; attempts = 0 }
          else eval i plan)
      (Array.mapi (fun i p -> (i, p)) plan_arr)
  in
  Option.iter Checkpoint.close journal;
  let passed = ref 0 and blocked = ref 0 and worst = ref 0 in
  let failures = ref [] in
  Array.iter
    (fun rc ->
      match rc.Resil.outcome with
      | Resil.Ok_cell (Cell_pass { blocked = b; worst = w }) ->
        incr passed;
        if b then incr blocked;
        worst := max !worst w
      | Resil.Ok_cell (Cell_fail (f, w)) ->
        worst := max !worst w;
        failures := f :: !failures
      | Resil.Timed_out _ | Resil.Errored _ | Resil.Skipped _ -> ())
    cells;
  {
    subject = subject.name;
    bound_desc = subject.bound_desc;
    plans = total;
    passed = !passed;
    blocked = !blocked;
    worst_own_steps = !worst;
    failures = List.rev !failures;
    coverage = Resil.coverage_of_cells cells;
  }

let certified r = r.failures = []

let pp_failure ppf f =
  Fmt.pf ppf "@[<v2>plan [%a]: %s@,schedule (%d decisions, shrunk from %d): %s@]" Plan.pp
    f.plan f.message (List.length f.schedule) f.shrunk_from
    (Schedule.to_string f.schedule)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s: %d/%d plans passed%s, worst own-steps %d (bound: %s)%a%a@]"
    r.subject r.passed r.plans
    (if r.blocked > 0 then Fmt.str " (%d with victim-blocked survivors)" r.blocked else "")
    r.worst_own_steps r.bound_desc
    Fmt.(list ~sep:nop (fun ppf f -> Fmt.pf ppf "@,%a" pp_failure f))
    r.failures
    (* Coverage is printed only when the campaign is incomplete, so
       clean-run output is unchanged and partial results are impossible
       to mistake for complete ones. *)
    (fun ppf c ->
      if not (Resil.complete c) then Fmt.pf ppf "@,INCOMPLETE coverage: %a" Resil.pp_coverage c)
    r.coverage
