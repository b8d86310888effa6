open Hwf_sim

(* Deterministic per-(seed, step, pid) hash, avalanched with the usual
   multiplicative constants; no mutable state, so replay is exact. *)
let jitter_hash ~seed ~step ~pid =
  let h = (seed * 0x9E3779B1) lxor (step * 0x85EBCA6B) lxor (pid * 0xC2B2AE35) in
  let h = h lxor (h lsr 15) in
  let h = h * 0x27D4EB2F in
  (h lxor (h lsr 13)) land max_int

let cost_fn (plan : Plan.t) ~(config : Config.t) =
  match plan.cost with
  | Plan.Uniform -> None
  | Plan.Slow -> Some (fun ~step:_ _pid _op -> config.tmax)
  | Plan.Jitter seed ->
    let span = config.tmax - config.tmin + 1 in
    Some (fun ~step pid _op -> config.tmin + (jitter_hash ~seed ~step ~pid mod span))

let gate_fn (plan : Plan.t) =
  match plan.axiom2 with
  | Plan.Enforced -> None
  | Plan.Suspended -> Some (fun ~step:_ -> false)
  | Plan.Windows { period; off; phase } ->
    if period <= 0 || off < 0 || off > period then
      invalid_arg "Inject: Windows requires 0 <= off <= period, period > 0";
    Some (fun ~step -> (step + phase) mod period >= off)

let crashes (plan : Plan.t) =
  List.map (fun (c : Plan.crash) -> (c.victim, c.after)) plan.crashes

let run ?step_limit ?sink ?trace_buf ~plan ~config ~policy programs =
  Engine.run ?step_limit ?sink ?trace_buf
    ?cost:(cost_fn plan ~config)
    ~crashes:(crashes plan)
    ?axiom2_active:(gate_fn plan)
    ~config ~policy programs

let run_recorded ?step_limit ?sink ?trace_buf ~plan ~config ~policy programs =
  let decisions = Vec.create () in
  let policy = Hwf_adversary.Explore.record_decisions policy decisions in
  (run ?step_limit ?sink ?trace_buf ~plan ~config ~policy programs, decisions)

let replay ?step_limit ?sink ?trace_buf ~plan ~config ~schedule programs =
  let policy = Policy.scripted ~fallback:Policy.first schedule in
  run ?step_limit ?sink ?trace_buf ~plan ~config ~policy programs
