open Hwf_sim
open Hwf_adversary
module Resil = Hwf_resil.Resil
module Checkpoint = Hwf_resil.Checkpoint
module Json = Hwf_obs.Json

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

(* The halting-failure half of [judge], on a well-formed run that
   terminated: [Ok blocked] or the failure. *)
let survivors_verdict subject (inst : instance) (r : Engine.result) =
  let config = subject.config in
  let n = Config.n config in
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
    Error
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
      Error
        (Fmt.str "p%d executed %d own statements, over the wait-freedom bound %d (%s)"
           (p + 1) s subject.step_bound subject.bound_desc)
    | [] -> (
      let survivors = List.filter (fun p -> r.finished.(p)) (List.init n Fun.id) in
      match inst.check ~survivors r with Ok () -> Ok !blocked | Error m -> Error m))

let judge subject inst r =
  match Explore.verdict (survivors_verdict subject inst) r with
  | Ok blocked -> Pass { blocked }
  | Error m -> Fail m

let replay_judge ?sink ?trace_buf subject plan schedule =
  let inst = subject.make () in
  let r =
    Inject.replay ~step_limit:subject.step_limit ?sink ?trace_buf ~plan
      ~config:subject.config ~schedule inst.programs
  in
  judge subject inst r

(* One judged run under [plan], with its decisions in a buffer. *)
let judged_run ?sink ?trace_buf subject plan =
  let inst = subject.make () in
  let result, decisions =
    Inject.run_recorded ~step_limit:subject.step_limit ?sink ?trace_buf ~plan
      ~config:subject.config ~policy:(subject.policy ()) inst.programs
  in
  (judge subject inst result, result, decisions)

let run_plan ?sink ?trace_buf subject plan =
  let verdict, result, decisions = judged_run ?sink ?trace_buf subject plan in
  (verdict, result, Vec.to_list decisions)

(* One certification cell: everything [certify] needs from one plan's
   run (and, on failure, its shrink). Cells are fully independent — the
   policy is rebuilt per plan from the subject's seed and shrinking
   replays only this cell's plan — so they can be evaluated on any
   domain in any order and folded back in plan order.

   Every engine run of a cell records into [trace_buf], the evaluating
   worker's scratch trace. A cell's result never references a trace (a
   failure is a plan, a schedule and a message), so the buffer cannot
   escape and needs no severing. The schedule list is built only when
   the plan fails. *)
type cell = Cell_pass of { blocked : bool; worst : int } | Cell_fail of failure * int

let max_shrink_rounds = 200

let run_cell ~shrink ?(deadline = Resil.no_deadline) ~trace_buf subject plan =
  (* One guard for the whole cell: the event count accumulates across
     the initial run and every shrink replay, so the deadline bounds the
     cell, not each engine run separately. The guard ticks
     once per event, statements included. *)
  let guard = Resil.guard_observer deadline in
  let sink =
    {
      Trace.on_stmt = (fun ~idx:_ ~pid:_ ~op:_ ~inv:_ ~cost:_ -> guard ());
      on_event = (fun _ -> guard ());
    }
  in
  let verdict, result, decisions = judged_run ~sink ~trace_buf subject plan in
  let worst = Array.fold_left max 0 result.Engine.own_steps in
  match verdict with
  | Pass { blocked } -> Cell_pass { blocked; worst }
  | Fail message ->
    let decisions = Vec.to_list decisions in
    let fails sched =
      Resil.check_deadline deadline;
      match replay_judge ~sink ~trace_buf subject plan sched with
      | Fail _ -> true
      | Pass _ -> false
    in
    let schedule =
      if shrink then Shrink.shrink_by ~max_rounds:max_shrink_rounds ~fails decisions
      else decisions
    in
    (* Shrinking may converge on a different failure of the same
       plan; report the message the shrunk schedule actually
       produces. *)
    let message =
      match replay_judge ~sink ~trace_buf subject plan schedule with
      | Fail m -> m
      | Pass _ -> message
    in
    Cell_fail ({ plan; message; schedule; shrunk_from = List.length decisions }, worst)

(* ---- checkpoint payloads ---- *)

let json_of_cell = function
  | Cell_pass { blocked; worst } ->
    Json.Obj
      [ ("verdict", Json.Str "pass"); ("blocked", Json.Bool blocked); ("worst", Json.Int worst) ]
  | Cell_fail (f, worst) ->
    Json.Obj
      [
        ("verdict", Json.Str "fail");
        ("worst", Json.Int worst);
        ("from", Json.Int f.shrunk_from);
        ("schedule", Checkpoint.pids f.schedule);
        ("message", Json.Str f.message);
      ]

let cell_of_json ~n plan v =
  let ( let* ) = Option.bind in
  let* worst = Json.int_member "worst" v in
  match Json.string_member "verdict" v with
  | Some "pass" ->
    let* blocked = Json.bool_member "blocked" v in
    Some (Cell_pass { blocked; worst })
  | Some "fail" ->
    let* shrunk_from = Json.int_member "from" v in
    let* schedule = Checkpoint.pids_member ~n "schedule" v in
    let* message = Json.string_member "message" v in
    Some (Cell_fail ({ plan; message; schedule; shrunk_from }, worst))
  | _ -> None

let campaign_id subject plans =
  (* Identifies the run's parameters for resume validation: same
     subject and same plan battery, position for position. *)
  Printf.sprintf "certify/%s/%s" subject.name
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map Plan.to_string plans))))

let certify ?(jobs = 1) ?pool_stats ?(retry = Resil.no_retry) ?cell_wall_s
    ?checkpoint ?(resume = false) ?(should_stop = fun () -> false) subject plans =
  let plan_arr = Array.of_list plans in
  let total = Array.length plan_arr in
  let eval trace_buf plan () =
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
    Resil.run_cell ~retry ~deadline_for (fun deadline ->
        run_cell ~shrink:(not !demoted) ~deadline ~trace_buf subject plan)
  in
  let cells =
    match
      Checkpoint.with_journal ?path:checkpoint ~resume
        ~campaign:(fun () -> campaign_id subject plans)
        ~cells:total
        ~key:(fun i -> Plan.to_string plan_arr.(i))
        ~encode:json_of_cell
        ~decode:(fun i -> cell_of_json ~n:(Config.n subject.config) plan_arr.(i))
        (fun journal ->
          Hwf_par.Pool.map_scratch ~jobs ?stats:pool_stats
            ~make:(fun () -> Trace.create subject.config)
            (fun trace_buf i ->
              Checkpoint.cell journal ~should_stop i (eval trace_buf plan_arr.(i)))
            (Array.init total Fun.id))
    with
    | Ok cells -> cells
    | Error msg -> invalid_arg ("Certify.certify: " ^ msg)
  in
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
