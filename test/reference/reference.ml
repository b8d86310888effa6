open Effect.Deep
open Hwf_sim

(* docs/MODEL.md's per-process state. [begun] says the current
   invocation's Inv_begin is recorded: that happens lazily, at its first
   statement (or at Inv_end for an empty invocation), and it is what
   "mid-invocation" means for [pending], nesting and [set_priority]. *)
type state =
  | Thinking of (unit, unit) continuation
  | Ready of (unit, unit) continuation * Op.t
  | Finished

type proc = {
  info : Proc.t;
  mutable priority : int;
  mutable state : state;
  mutable inv : int;  (* invocations begun *)
  mutable label : string;  (* label of the announced invocation *)
  mutable begun : bool;
  mutable own_steps : int;
  mutable inv_steps : int;
  mutable pending : bool;  (* preempted since its last statement *)
  mutable guarantee : int;  (* remaining protected time units *)
}

(* Discontinues the processes a run leaves suspended. *)
exception Abandoned

let is_finished p = match p.state with Finished -> true | Thinking _ | Ready _ -> false

let run ?(step_limit = 1_000_000) ?cost ?(crashes = []) ?axiom2_active
    ~(config : Config.t) ~(policy : Policy.t) programs =
  let n = Config.n config in
  if Array.length programs <> n then
    invalid_arg "Engine.run: program count <> process count";
  List.iter
    (fun (victim, _) ->
      if victim < 0 || victim >= n then
        Fmt.invalid_arg "Engine.run: crash victim %d outside [0, %d)" victim n)
    crashes;
  let choose = Policy.prepare policy in
  let rt = Runtime.handle () in
  let trace = Trace.create config in
  let ps =
    Array.map
      (fun (info : Proc.t) ->
        {
          info;
          priority = info.priority;
          state = Finished (* until launched *);
          inv = 0;
          label = "";
          begun = false;
          own_steps = 0;
          inv_steps = 0;
          pending = false;
          guarantee = 0;
        })
      config.procs
  in
  (* Statements executed per processor: what [Eff.stamp] returns. *)
  let cpu_stmts = Array.make config.processors 0 in
  let cur = ref 0 in
  let gate = ref true in
  let begin_inv p =
    p.begun <- true;
    p.inv_steps <- 0;
    p.pending <- false;
    Trace.add_inv_begin trace ~pid:p.info.pid ~inv:p.inv ~label:p.label;
    p.inv <- p.inv + 1
  in
  let end_inv p label =
    if not p.begun then begin_inv p;
    p.begun <- false;
    p.inv_steps <- 0;
    p.pending <- false;
    p.guarantee <- 0;
    Trace.add_inv_end trace ~pid:p.info.pid ~inv:(p.inv - 1) ~label
  in
  let exec p op ~cost =
    if not p.begun then begin_inv p;
    (* Axiom 2: resuming after a preemption grants Q protected units. *)
    if p.pending then p.guarantee <- config.quantum;
    p.pending <- false;
    Trace.add_stmt trace ~pid:p.info.pid ~op ~inv:(p.inv - 1) ~cost;
    p.own_steps <- p.own_steps + 1;
    p.inv_steps <- p.inv_steps + 1;
    p.guarantee <- max 0 (p.guarantee - cost);
    let cpu = p.info.processor in
    cpu_stmts.(cpu) <- cpu_stmts.(cpu) + 1;
    Array.iter
      (fun q -> if q != p && q.info.processor = cpu && q.begun then q.pending <- true)
      ps
  in
  let resume k v =
    Runtime.enter rt;
    continue k v
  in
  (* A handler that rejects an effect keeps the continuation, so
     teardown discontinues it. *)
  let park p k e =
    p.state <- Thinking k;
    raise e
  in
  let abandoning = ref false in
  let handler =
    {
      retc =
        (fun () ->
          Runtime.leave rt;
          let p = ps.(!cur) in
          p.begun <- false;
          p.pending <- false;
          p.guarantee <- 0;
          p.state <- Finished);
      exnc =
        (fun e ->
          Runtime.leave rt;
          match e with Abandoned -> () | e -> raise e);
      effc =
        (fun (type a) (e : a Effect.t) : ((a, unit) continuation -> unit) option ->
          let handle f =
            Some
              (fun k ->
                Runtime.leave rt;
                f ps.(!cur) k)
          in
          if !abandoning then Some (fun k -> discontinue k Abandoned)
          else
            match e with
            | Eff.Step op -> handle (fun p k -> p.state <- Ready (k, op))
            | Eff.Inv_begin label ->
              handle (fun p k ->
                  if p.begun then
                    Fmt.kstr
                      (fun m -> park p k (Invalid_argument m))
                      "Eff.invocation: nested invocation %S in %s" label p.info.name;
                  p.label <- label;
                  p.state <- Thinking k)
            | Eff.Inv_end label ->
              handle (fun p k ->
                  end_inv p label;
                  resume k ())
            | Eff.Stamp ->
              handle (fun p k ->
                  let cpu = p.info.processor in
                  resume k (cpu, cpu_stmts.(cpu)))
            | Eff.Set_priority level ->
              handle (fun p k ->
                  if p.begun then
                    Fmt.kstr
                      (fun m -> park p k (Invalid_argument m))
                      "Eff.set_priority: %s cannot change priority mid-invocation"
                      p.info.name;
                  if level < 1 || level > config.levels then
                    park p k (Invalid_argument "Eff.set_priority: level out of range");
                  p.priority <- level;
                  Trace.add trace
                    (Trace.Set_priority { pid = p.info.pid; priority = level });
                  resume k ())
            | _ -> None);
    }
  in
  let abandon p =
    match p.state with
    | Finished -> ()
    | Thinking k | Ready (k, _) ->
      p.state <- Finished;
      cur := p.info.pid;
      abandoning := true;
      Runtime.enter rt;
      (try discontinue k Abandoned with _ -> ());
      Runtime.leave rt
  in
  let pview p : Policy.pview =
    {
      pid = p.info.pid;
      processor = p.info.processor;
      priority = p.priority;
      phase =
        (match p.state with
        | Finished -> Policy.Finished
        | Ready _ -> Policy.Ready
        | Thinking _ -> Policy.Thinking);
      next_op =
        (match p.state with Ready (_, op) -> Some op | Thinking _ | Finished -> None);
      own_steps = p.own_steps;
      inv_steps = p.inv_steps;
      inv = p.inv;
      guarantee = p.guarantee;
      pending = p.pending;
    }
  in
  (* A crash victim is parked once it has run [after] own statements
     and holds no guarantee; asked afresh at every decision. *)
  let is_halted p =
    (not (is_finished p))
    && p.guarantee = 0
    && List.exists (fun (victim, after) -> victim = p.info.pid && p.own_steps >= after) crashes
  in
  let cost_of ~step pid op =
    match cost with
    | None -> config.tmin
    | Some f -> max config.tmin (min config.tmax (f ~step pid op))
  in
  let sync_gate () =
    match axiom2_active with
    | None -> ()
    | Some f ->
      let at = Trace.statements trace in
      let active = f ~step:at in
      if active <> !gate then begin
        gate := active;
        (* Guarantees granted while enforcement was off are void. *)
        if active then Array.iter (fun p -> p.guarantee <- 0) ps;
        Trace.add trace (Trace.Axiom2_gate { at; active })
      end
  in
  let decision_limit = if step_limit >= max_int / 4 then max_int else 4 * step_limit in
  let decisions = ref 0 in
  let rec loop () : Engine.stop_reason =
    if Array.for_all is_finished ps then All_finished
    else if Trace.statements trace >= step_limit then Step_limit
    else if !decisions >= decision_limit then Decision_limit
    else begin
      incr decisions;
      sync_gate ();
      (* The one scan: top ready level and guarantee holders per
         (processor, level). *)
      let max_ready = Array.make config.processors 0 in
      let holders = Array.make_matrix config.processors (config.levels + 1) 0 in
      Array.iter
        (fun p ->
          let cpu = p.info.processor in
          (match p.state with
          | Ready _ -> max_ready.(cpu) <- max max_ready.(cpu) p.priority
          | Thinking _ | Finished -> ());
          if (not (is_finished p)) && p.guarantee > 0 then
            holders.(cpu).(p.priority) <- holders.(cpu).(p.priority) + 1)
        ps;
      let is_runnable p =
        let cpu = p.info.processor in
        (not (is_finished p))
        (* Axiom 1: no ready process of higher priority on the processor. *)
        && p.priority >= max_ready.(cpu)
        (* Axiom 2: no other same-level holder of a guarantee. *)
        && not
             (config.axiom2 && !gate
             && holders.(cpu).(p.priority) > if p.guarantee > 0 then 1 else 0)
      in
      let runnable = List.filter (fun pid -> is_runnable ps.(pid)) (List.init n Fun.id) in
      assert (runnable <> []);
      let schedulable = List.filter (fun pid -> not (is_halted ps.(pid))) runnable in
      if schedulable = [] then All_halted
      else begin
        let step = Trace.statements trace in
        let view = Policy.view ~step ~runnable:schedulable (Array.map pview ps) in
        match choose view with
        | None -> Policy_stopped
        | Some pid ->
          if not (List.mem pid schedulable) then
            Fmt.invalid_arg "Engine.run: policy %s chose non-runnable %a" policy.name
              Proc.pp_pid pid;
          let p = ps.(pid) in
          (* Waking a thinking process is fused with its first statement. *)
          (match p.state with
          | Thinking k ->
            cur := pid;
            resume k ()
          | Ready _ | Finished -> ());
          (match p.state with
          | Ready (k, op) ->
            exec p op ~cost:(cost_of ~step pid op);
            cur := pid;
            resume k ()
          | Thinking _ | Finished -> ());
          loop ()
      end
    end
  in
  Fun.protect ~finally:(fun () -> Array.iter abandon ps) @@ fun () ->
  Array.iteri
    (fun pid body ->
      cur := pid;
      Runtime.enter rt;
      match_with body () handler)
    programs;
  let stop = loop () in
  {
    Engine.trace;
    finished = Array.map is_finished ps;
    own_steps = Array.map (fun p -> p.own_steps) ps;
    halted = Array.map is_halted ps;
    stop;
  }

(* ---- comparison ---- *)

type outcome = Returned of Engine.result | Raised of string

let outcome f =
  match f () with r -> Returned r | exception e -> Raised (Printexc.to_string e)

let stop_name : Engine.stop_reason -> string = function
  | All_finished -> "All_finished"
  | Policy_stopped -> "Policy_stopped"
  | Step_limit -> "Step_limit"
  | Decision_limit -> "Decision_limit"
  | All_halted -> "All_halted"

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let bools a = ints (Array.map Bool.to_int a)

let diff a b =
  let field name show x y =
    if x = y then None else Some (Printf.sprintf "%s: %s vs %s" name (show x) (show y))
  in
  let ( >>? ) d rest = match d with Some _ -> d | None -> rest () in
  match (a, b) with
  | Raised ea, Raised eb -> field "exception" Fun.id ea eb
  | Returned _, Raised e -> Some ("only the second run raised " ^ e)
  | Raised e, Returned _ -> Some ("only the first run raised " ^ e)
  | Returned a, Returned b ->
    let bytes (r : Engine.result) = Hwf_obs.Jsonl.trace_to_string r.trace in
    (if bytes a = bytes b then None else Some "trace bytes differ")
    >>? fun () ->
    field "stop" stop_name a.stop b.stop >>? fun () ->
    field "finished" bools a.finished b.finished >>? fun () ->
    field "own_steps" ints a.own_steps b.own_steps >>? fun () ->
    field "halted" bools a.halted b.halted

(* One policy call as a recorder saw it: the view's step and runnable
   list, and the process views it read ([None]: not read). *)
type seen = { step : int; runnable : Proc.pid list; procs : Policy.pview option array }

(* A non-burst-safe wrapper copying the views it is shown; the copies of
   one run, in call order. With [~sparse] it reads every process's view
   only on even calls and just the runnable ones' on odd calls, so an
   engine that builds views when they are read must also get the views
   it was not asked for in between right. *)
let recorder ~sparse policy =
  let seen = ref [] in
  let wrapped =
    Policy.of_factory (policy.Policy.name ^ "+views") (fun () ->
        seen := [];
        let calls = ref 0 in
        let choose = Policy.prepare policy in
        fun (v : Policy.view) ->
          let all = (not sparse) || !calls mod 2 = 0 in
          incr calls;
          let procs =
            Array.init v.nprocs (fun pid ->
                if all || List.mem pid v.runnable then Some (v.proc pid) else None)
          in
          seen := { step = v.step; runnable = v.runnable; procs } :: !seen;
          choose v)
  in
  (wrapped, fun () -> List.rev !seen)

let diff_views engine reference =
  let rec go i (es : seen list) (rs : seen list) =
    match (es, rs) with
    | [], [] -> None
    | [], _ | _, [] ->
      Some
        (Printf.sprintf "policy consulted %d times by the engine, %d by the reference"
           (i + List.length es) (i + List.length rs))
    | e :: es, r :: rs ->
      if e.step <> r.step then
        Some (Printf.sprintf "decision %d: step %d vs %d" i e.step r.step)
      else if e.runnable <> r.runnable then
        Some
          (Printf.sprintf "decision %d: runnable [%s] vs [%s]" i
             (ints (Array.of_list e.runnable))
             (ints (Array.of_list r.runnable)))
      else
        match
          List.find_opt
            (fun pid -> e.procs.(pid) <> None && e.procs.(pid) <> r.procs.(pid))
            (List.init (Array.length r.procs) Fun.id)
        with
        | Some pid -> Some (Printf.sprintf "decision %d: view of pid %d differs" i pid)
        | None -> go (i + 1) es rs
  in
  go 0 engine reference

let differential ~engine ~reference policy =
  let ref_policy, ref_views = recorder ~sparse:false policy in
  let expected = outcome (fun () -> reference ref_policy) in
  let against label run =
    Option.map (fun d -> label ^ ": " ^ d) (diff (outcome run) expected)
  in
  (* A recorded engine run: the outcome, then every view it read. *)
  let recorded ~sparse label =
    let eng_policy, eng_views = recorder ~sparse policy in
    match against label (fun () -> engine eng_policy) with
    | Some _ as d -> d
    | None ->
      Option.map (fun d -> label ^ " views: " ^ d) (diff_views (eng_views ()) (ref_views ()))
  in
  match against "engine" (fun () -> engine policy) with
  | Some _ as d -> d
  | None -> (
    match recorded ~sparse:false "recorded engine" with
    | Some _ as d -> d
    | None -> recorded ~sparse:true "sparsely recorded engine")
