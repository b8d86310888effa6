(* hybridsim — command-line driver for the hybrid-scheduling wait-free
   synchronization library (Anderson & Moir, PODC 1999 reproduction).

   Subcommands expose the simulator directly: run a consensus algorithm
   once under a chosen scheduler and render the interleaving, model-check
   a scenario, probe bivalence, linearizability-test the Fig. 5 C&S, or
   print the Table 1 thresholds. The full experiment suite lives in
   `dune exec bench/main.exe`.

   Every flag shared by several subcommands is declared once below, as
   a Cmdliner term per group (scenario, policy, search, resilience,
   exports); each subcommand's term binds the groups it takes. *)

open Cmdliner
open Cmdliner.Term.Syntax
open Hwf_sim
open Hwf_adversary
open Hwf_workload
module Resil = Hwf_resil.Resil
module Metrics = Hwf_obs.Metrics

(* ---- the scenario: -i/-c/-q/-l ---- *)

let layout_conv =
  let pairs = Arg.(list (pair ~sep:':' int int)) in
  let parse s =
    match Arg.conv_parser pairs s with Ok [] -> Error (`Msg "empty layout") | r -> r
  in
  Arg.conv (parse, Arg.conv_printer pairs)

let layout_arg =
  let doc =
    "Process placement, comma-separated cpu:priority pairs (0-based cpus, \
     1-based priorities), e.g. 0:1,0:1,1:2."
  in
  Arg.(
    value
    & opt layout_conv [ (0, 1); (0, 1) ]
    & info [ "l"; "layout" ] ~docv:"LAYOUT" ~doc)

let quantum_arg =
  let doc = "Scheduling quantum, in atomic statements." in
  Arg.(value & opt int 8 & info [ "q"; "quantum" ] ~docv:"Q" ~doc)

let cnum_arg =
  let doc = "Consensus number C of the base objects (fig7/fig9)." in
  Arg.(value & opt int 2 & info [ "c"; "consensus-number" ] ~docv:"C" ~doc)

let consensus_impls = [ ("fig3", `Fig3); ("fig7", `Fig7); ("fig9", `Fig9) ]

let bundle_of impl cnum quantum layout =
  let impl =
    match impl with
    | `Fig3 -> Scenarios.Fig3
    | `Fig7 -> Scenarios.Fig7 { consensus_number = cnum }
    | `Fig9 -> Scenarios.Fig9 { consensus_number = cnum }
  in
  Scenarios.consensus ~name:"cli" ~impl ~quantum ~layout

let scenario_of impl cnum quantum layout =
  match impl with
  | `Queue ->
    Scenarios.universal_queue ~name:"cli" ~quantum ~consensus_number:cnum ~layout
      ~ops_per:1
  | (`Fig3 | `Fig7 | `Fig9) as impl -> (bundle_of impl cnum quantum layout).Scenarios.scenario

(* -i/-c/-q/-l resolved once, through [resolve], over the [impls] table;
   the first entry is the default. *)
let scenario_flags resolve impls doc =
  let impl_arg =
    Arg.(
      value
      & opt (enum impls) (snd (List.hd impls))
      & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)
  in
  Term.(const resolve $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg)

(* [run] and [bivalence]: the consensus figures, with their decision. *)
let bundle_term =
  scenario_flags bundle_of consensus_impls
    "Consensus implementation: fig3 (uniprocessor), fig7, fig9 (fair)."

(* [explore], [replay] and [analyze]: every scenario, the universal
   queue included — its verdict replays a Hist-recorded history through
   the linearizability checker, the scenario family that per-processor
   stamp clocks keep prunable (docs/PARALLELISM.md). *)
let scenario_term =
  scenario_flags scenario_of
    (consensus_impls @ [ ("queue", `Queue) ])
    "Scenario: fig3 (uniprocessor), fig7, fig9 (fair), or queue (universal \
     queue over Fig. 7 consensus, history-checked via Lincheck)."

(* ---- the policy: -p/--seed ---- *)

let seed_arg =
  let doc = "PRNG seed for randomized schedulers." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let make_policy policy seed =
  match policy with
  | `Random -> Policy.random ~seed
  | `Rr -> Policy.round_robin ()
  | `First -> Policy.first
  | `Stagger -> Stagger.max_interleave ()

let policy_arg =
  let doc = "Scheduling policy: random, rr (round-robin), first, stagger." in
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("rr", `Rr); ("first", `First); ("stagger", `Stagger) ]) `Random
    & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

(* The single run's policy, and the seed (which also seeds the command's
   random workload, where it has one). *)
let policy_term = Term.(const (fun p seed -> (make_policy p seed, seed)) $ policy_arg $ seed_arg)

(* ---- the search: --jobs/--no-dpor ---- *)

type search = { jobs : int; dpor : bool }

let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* [cas] and [faults] take the pool flag only; they have no pruning. *)
let pool_term =
  let doc =
    "Worker domains for the parallel search paths (explore subtrees, \
     fault-plan cells), each claiming the next cell from one shared counter. \
     Results are identical to --jobs 1 unless --max-runs cuts the search; the \
     default is the machine's recommended domain count."
  in
  Term.(
    const (fun jobs -> { jobs; dpor = true })
    $ Arg.(
        value
        & opt positive_int (Hwf_par.Pool.default_jobs ())
        & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let search_term =
  let no_dpor_arg =
    let doc =
      "Disable sleep-set pruning and explore every schedule exhaustively. \
       Pruning never changes verdicts or the first counterexample, so this \
       only serves to cross-check it."
    in
    Arg.(value & flag & info [ "no-dpor" ] ~doc)
  in
  Term.(const (fun s no_dpor -> { s with dpor = not no_dpor }) $ pool_term $ no_dpor_arg)

(* ---- resilience: --checkpoint/--resume/--cell-wall/--retries
   (docs/ROBUSTNESS.md) ---- *)

type resil = {
  checkpoint : string option;
  resume : bool;
  cell_wall : float option;
  retry : Resil.retry;
}

(* [explore] takes every flag but --retries. *)
let resil_term ~retries =
  let checkpoint_arg =
    let doc =
      "Journal completed campaign cells to $(docv) (schema hwf-ckpt/2). With \
       --resume, cells already journaled are restored instead of re-run."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from the --checkpoint journal: skip finished cells. The journal \
       must match the campaign (same subject and parameters); a clean campaign \
       killed and resumed reproduces the uninterrupted output."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let cell_wall_arg =
    let doc =
      "Wall-clock budget per campaign cell, in seconds. A cell exceeding it \
       becomes a structured timeout (coverage drops below 100% and the exit \
       code is 2) instead of hanging the campaign."
    in
    Arg.(value & opt (some float) None & info [ "cell-wall" ] ~docv:"SECS" ~doc)
  in
  let retries_arg =
    let doc =
      "Attempts per cell (including the first) for timed-out or transiently \
       failing cells, with exponential backoff; retried cells are demoted \
       (no counterexample shrinking)."
    in
    if retries then Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
    else Term.const 1
  in
  let+ checkpoint = checkpoint_arg
  and+ resume = resume_arg
  and+ cell_wall = cell_wall_arg
  and+ attempts = retries_arg in
  let retry =
    if attempts <= 1 then Resil.no_retry else { Resil.default_retry with attempts }
  in
  { checkpoint; resume; cell_wall; retry }

(* Incomplete coverage is a harness verdict, not a subject verdict. *)
let exit_if_incomplete coverage =
  if not (Resil.complete coverage) then begin
    Fmt.epr "harness: incomplete campaign — %a@." Resil.pp_coverage coverage;
    exit Resil.exit_harness
  end

(* ---- exports: --trace-out/--metrics-out ---- *)

type exports = { trace_out : string option; metrics_out : string option }

let exports_term =
  let trace_out_arg =
    let doc =
      "Write the run's event trace as JSON lines (schema hwf-trace/1; see \
       docs/OBSERVABILITY.md). Deterministic: identical bytes across --jobs \
       settings, unless --max-runs cuts the search."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Write run metrics as JSON lines (schema hwf-metrics/1; see \
       docs/OBSERVABILITY.md). Deterministic: identical bytes across --jobs \
       settings, unless --max-runs cuts the search."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace_out metrics_out -> { trace_out; metrics_out })
    $ trace_out_arg $ metrics_out_arg)

let exporting e = e.trace_out <> None || e.metrics_out <> None

(* The exports of one run: its trace, and the metrics [metrics ()]
   builds only when they are asked for. *)
let export e trace metrics =
  Option.iter
    (fun path ->
      Hwf_obs.Jsonl.write_trace ~path trace;
      Fmt.pr "trace: %s@." path)
    e.trace_out;
  Option.iter
    (fun path ->
      Hwf_obs.Jsonl.write_metrics ~path (metrics ());
      Fmt.pr "metrics: %s@." path)
    e.metrics_out

(* An exploration's size, as harness rows ([explore], [stats]). *)
let explore_rows (o : Explore.outcome) =
  [ ("explore.runs", o.runs); ("explore.exhaustive", if o.exhaustive then 1 else 0) ]

(* ---- shared actions ---- *)

(* One engine run of [run], [analyze] and [trace]. With [collect],
   metrics are collected live through the engine's trace sink; without,
   no collector exists, the trace's appends call no-op sinks and
   [metrics ()] derives them from the trace. *)
let run_once ?(collect = false) ~config ~policy programs =
  let collector = if collect then Some (Metrics.collector config) else None in
  let r =
    Engine.run ~step_limit:20_000_000
      ?sink:(Option.map Metrics.sink collector)
      ~config ~policy programs
  in
  let metrics () =
    match collector with Some c -> Metrics.finish c | None -> Metrics.of_trace r.trace
  in
  (r, metrics)

(* The Fig. 5 subject of [cas] and [stats -i fig5]: a seeded random
   script of [ops] operations per process. *)
let fig5_subject ~seed ~ops ~quantum ~layout =
  let script = Scenarios.random_script ~seed ~n:(List.length layout) ~ops_per:ops in
  (script, Scenarios.hybrid_cas ~name:"cli" ~quantum ~layout ~script)

(* One measured Fig. 5 run: metrics collected live, the access-failure
   tap reported against the Lemma 2 envelope (docs/OBSERVABILITY.md maps
   the symbols), and [harness] followed by the tap's counters. *)
let fig5_run ~step_limit ~quantum ~layout ~script ~policy ~harness =
  let open Hwf_core in
  let config = Layout.to_config ~quantum layout in
  let collector = Metrics.collector config in
  let sum =
    Scenarios.run_cas ~step_limit ~sink:(Metrics.sink collector) ~quantum ~layout ~script
      ~policy ()
  in
  let st = sum.Scenarios.cas_stats in
  let m =
    Metrics.with_bounds (Metrics.finish collector)
      [
        {
          Metrics.name = "AF_diff/op (Lemma 2, <=M)";
          measured = st.Hybrid_cas.worst_af_diff;
          bound = Some (Bounds.af_diff_bound ~m:(Config.max_per_processor config));
        };
        {
          Metrics.name = "AF_same/op (worst)";
          measured = st.Hybrid_cas.worst_af_same;
          bound = None;
        };
      ]
  in
  ( sum,
    Metrics.with_harness m
      (harness
      @ [
          ("cas.ops", st.ops);
          ("cas.appends", st.appends);
          ("cas.af_diff_total", st.af_diff);
          ("cas.af_same_total", st.af_same);
          ("cas.scan_failures", st.scan_failures);
        ]) )

(* The negative-control loop of [lint --corpus] and [analyze --corpus]:
   [judge] prints one case's line and returns its name and whether it
   behaved; any misbehaving case exits 1. *)
let corpus_controls ~passed ~failed judge cases =
  let misses =
    List.filter_map (fun c -> match judge c with _, true -> None | name, false -> Some name) cases
  in
  match misses with
  | [] -> Fmt.pr "corpus: all %d %s@." (List.length cases) passed
  | ms ->
    Fmt.epr "corpus: %d %s: %a@." (List.length ms) failed Fmt.(list ~sep:comma string) ms;
    exit 1

(* ---- run: one consensus execution ---- *)

let run_cmd =
  let render_arg =
    let doc = "Render the interleaving diagram of the run." in
    Arg.(value & flag & info [ "r"; "render" ] ~doc)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a consensus algorithm once and report the decision.")
  @@ let+ b = bundle_term
     and+ policy, _ = policy_term
     and+ render = render_arg
     and+ ex = exports_term in
     let scenario = b.Scenarios.scenario in
     let r, metrics =
       run_once ~collect:(ex.metrics_out <> None) ~config:scenario.Explore.config ~policy
         (scenario.Explore.make ()).Explore.programs
     in
     let wf = Wellformed.check r.trace in
     Fmt.pr "finished: %b@." (Array.for_all Fun.id r.finished);
     Fmt.pr "statements: %d@." (Trace.statements r.trace);
     Fmt.pr "well-formed: %b@." (wf = []);
     List.iter (fun v -> Fmt.pr "  %a@." Wellformed.pp_violation v) wf;
     Array.iteri
       (fun pid o ->
         Fmt.pr "p%d decided: %s@." (pid + 1)
           (match o with Some v -> string_of_int v | None -> "-"))
       (b.Scenarios.last_outputs ());
     (match b.Scenarios.last_decision () with
     | Some v -> Fmt.pr "consensus: %d@." v
     | None -> Fmt.pr "consensus: DISAGREEMENT OR INCOMPLETE@.");
     if render then Fmt.pr "@.%s@." (Render.lanes r.trace);
     export ex r.trace metrics;
     if b.Scenarios.last_decision () = None then exit 1

(* ---- explore: model checking ---- *)

let explore_cmd =
  let pb_arg =
    let doc = "Preemption bound (context bound); omit for unbounded." in
    Arg.(value & opt (some int) None & info [ "b"; "preemption-bound" ] ~docv:"N" ~doc)
  in
  let max_runs_arg =
    let doc = "Maximum schedules to explore." in
    Arg.(value & opt int 200_000 & info [ "max-runs" ] ~docv:"N" ~doc)
  in
  let shrink_arg =
    let doc = "Minimize any counterexample schedule before reporting it." in
    Arg.(value & flag & info [ "shrink" ] ~doc)
  in
  let save_arg =
    let doc = "Write the (possibly shrunk) counterexample schedule to this file." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let strategy_arg =
    let doc =
      "Search strategy: $(b,dfs) (exhaustive DFS, the default) or a randomized \
       sampler — $(b,naive) (uniform), $(b,pct) (probabilistic concurrency \
       testing; see --depth), $(b,pos) (partial order sampling), $(b,surw) \
       (selectively uniform random walk). Samplers run --runs seeded schedules \
       derived from --seed and report schedules-to-first-bug with a 95% \
       confidence interval (docs/SAMPLING.md)."
    in
    Arg.(value & opt string "dfs" & info [ "strategy" ] ~docv:"STRAT" ~doc)
  in
  let runs_arg =
    let doc = "Schedules to sample (randomized strategies only)." in
    Arg.(value & opt int 1_000 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let depth_arg =
    let doc = "PCT bug depth d (d-1 priority-change points per run)." in
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc)
  in
  let indep_arg =
    let doc =
      "Arm the static independence oracle (docs/LINT.md): derive \
       result-insensitive commuting RMW pairs from a schedule-battery replay \
       of the scenario, differentially certify every claim by swap-replay \
       (any refutation is a hard error, exit 1), and feed the stronger \
       relation into the sleep-set pruning. Verdicts and counterexamples are \
       unchanged; run counts can only shrink. DFS only."
    in
    Arg.(value & flag & info [ "indep" ] ~doc)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check a consensus scenario over scheduler decisions \
          (domain-parallel with --jobs), exhaustively or with randomized \
          sampling strategies (--strategy naive|pct|pos|surw).")
  @@ let+ scenario = scenario_term
     and+ pb = pb_arg
     and+ max_runs = max_runs_arg
     and+ do_shrink = shrink_arg
     and+ save = save_arg
     and+ { jobs; dpor } = search_term
     and+ indep = indep_arg
     and+ resil = resil_term ~retries:false
     and+ ex = exports_term
     and+ strategy = strategy_arg
     and+ runs = runs_arg
     and+ depth = depth_arg
     and+ seed = seed_arg in
     Resil.install_interrupt_handlers ();
     let estats = Explore.make_stats ~jobs scenario in
     let relation =
       if not indep then None
       else
         match Registry.static_relation scenario with
         | Error m ->
           Fmt.epr "independence oracle REFUTED: %s@." m;
           exit 1
         | Ok (relation, summary, cert) ->
           Fmt.pr "oracle: %a@." Hwf_lint.Indep.pp_summary summary;
           Fmt.pr "oracle: %a@." Hwf_lint.Indep.pp_certification cert;
           Some relation
     in
     let o =
       match strategy with
       | "dfs" ->
         Explore.explore ?preemption_bound:pb ~max_runs ~step_limit:8_000_000 ~jobs ~dpor
           ?relation ~stats:estats ?cell_wall_s:resil.cell_wall
           ?checkpoint:resil.checkpoint ~resume:resil.resume scenario
       | s -> (
         match Randsched.of_name ~depth s with
         | Error m ->
           Fmt.epr "%s@." m;
           exit Resil.exit_harness
         | Ok strategy ->
           let o =
             Explore.sample ~runs ~step_limit:8_000_000 ~jobs ~stats:estats ~strategy ~seed
               scenario
           in
           (match o.Explore.counterexample with
           | Some _ ->
             let lo, hi = Explore.stf_ci o in
             Fmt.pr "%s: first bug at schedule %d of %d (stf 95%% CI [%.1f, %.1f])@."
               (Randsched.name strategy) o.Explore.runs runs lo hi
           | None ->
             let lo, _ = Explore.stf_ci o in
             Fmt.pr "%s: no bug in %d schedules (stf 95%% lower bound %.1f)@."
               (Randsched.name strategy) o.Explore.runs lo);
           (* Engine runs actually performed: with --jobs > 1 cells past a
              known failure are skipped, so this can exceed [o.runs] (the
              first-failure index) without affecting determinism. *)
           Fmt.pr "sampled: %d engine runs@." (Explore.stats_sampled estats);
           o)
     in
     Fmt.pr "%a@." Explore.pp_outcome o;
     if strategy = "dfs" then begin
       Fmt.pr "sleep sets: %d branches pruned; source sets: %d blocked prefixes@."
         (Explore.stats_pruned estats)
         (Explore.stats_source_prunes estats)
     end;
     (* Exports are schedule-deterministic: the counterexample's replayed
        trace if one was found, otherwise the canonical first (all-zeros)
        schedule — both identical across --jobs settings whenever the
        outcome is. *)
     let export (result : Engine.result) =
       export ex result.trace (fun () ->
           Metrics.with_harness (Metrics.of_trace result.trace) (explore_rows o))
     in
     match o.counterexample with
     | None ->
       if exporting ex then export (fst (Schedule.replay scenario []));
       exit_if_incomplete o.Explore.coverage
     | Some c ->
       let schedule =
         if do_shrink then begin
           let small = Shrink.shrink scenario c.decisions in
           Fmt.pr "shrunk %d decisions to %d@." (List.length c.decisions) (List.length small);
           small
         end
         else c.decisions
       in
       let result, _ = Schedule.replay scenario schedule in
       Fmt.pr "@.%s@.schedule: %s@." (Render.lanes result.trace) (Schedule.to_string schedule);
       Option.iter
         (fun path ->
           Schedule.save ~path schedule;
           Fmt.pr "saved to %s@." path)
         save;
       export result;
       exit Resil.exit_counterexample

(* ---- replay: re-judge a saved schedule ---- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Schedule file (from explore --save).")
  in
  Cmd.v (Cmd.info "replay" ~doc:"Replay a saved schedule against a scenario and re-judge it.")
  @@ let+ scenario = scenario_term and+ file = file_arg in
     match Schedule.load ~n:(Config.n scenario.config) ~path:file () with
     | Error m ->
       Fmt.epr "%s@." m;
       exit Resil.exit_harness
     | Ok schedule -> (
       let result, _ = Schedule.replay scenario schedule in
       Fmt.pr "%s@." (Render.lanes result.trace);
       match Schedule.verdict scenario schedule with
       | Ok () -> Fmt.pr "verdict: passes@."
       | Error m ->
         Fmt.pr "verdict: FAILS (%s)@." m;
         exit 1)

(* ---- analyze: run once and print trace analytics + race report ---- *)

let analyze_cmd =
  let report_arg =
    let doc =
      "Write the happens-before race report as JSON lines (schema \
       hwf-analyze/1; see docs/OBSERVABILITY.md). Deterministic for a \
       deterministic policy."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let corpus_arg =
    let doc =
      "Negative-control mode: run the race certifier over the known-racy and \
       known-clean corpus instead of a scenario. Every racy case must be \
       flagged on its expected variable and every clean case must come back \
       empty; exit 1 otherwise."
    in
    Arg.(value & flag & info [ "corpus" ] ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run a scenario once and print per-invocation preemption analytics \
          plus the happens-before race report (or, with --corpus, check the \
          race certifier against its known-racy/known-clean controls).")
  @@ let+ scenario = scenario_term
     and+ policy, _ = policy_term
     and+ report = report_arg
     and+ corpus = corpus_arg in
     if corpus then
       let module C = Hwf_race_corpus.Corpus in
       corpus_controls ~passed:"race-certifier controls passed" ~failed:"control(s) failed"
         (fun (c : C.case) ->
           let r = C.analyze c in
           let ok = C.verdict_matches c r in
           Fmt.pr "%-16s expected %-5s found %d race(s)%s %s@." c.C.name
             (if c.C.racy then "racy" else "clean")
             (Hwf_obs.Races.count r)
             (match c.C.var with Some v -> " on " ^ v | None -> "")
             (if ok then "(ok)" else "MISMATCH");
           (c.C.name, ok))
         C.all
     else begin
       let r, metrics =
         run_once ~config:scenario.config ~policy (scenario.Explore.make ()).Explore.programs
       in
       let m = metrics () in
       let invs = m.Metrics.invocations in
       let fold f g = List.fold_left (fun acc (i : Metrics.inv_stat) -> f acc (g i)) 0 invs in
       Fmt.pr
         "invocations: %d@.switches: %d@.max statements/invocation: %d@.same-level \
          preemptions: %d (max %d per invocation)@.higher-level preemptions: %d@."
         (List.length invs) m.Metrics.switches
         (fold max (fun i -> i.statements))
         (fold ( + ) (fun i -> i.same_preemptions))
         (fold max (fun i -> i.same_preemptions))
         (fold ( + ) (fun i -> i.higher_preemptions));
       List.iter
         (fun (i : Metrics.inv_stat) ->
           Fmt.pr "  %a.%d %-8s %3d stmts, %d same-level / %d higher-level preemptions%s@."
             Proc.pp_pid i.pid i.inv i.label i.statements i.same_preemptions
             i.higher_preemptions
             (if i.completed then "" else " (incomplete)"))
         invs;
       let races = Hwf_obs.Races.of_trace r.trace in
       Fmt.pr "@.%a@." Hwf_obs.Races.pp_report races;
       Option.iter
         (fun path ->
           Hwf_obs.Jsonl.write_races ~path ~config:scenario.config races;
           Fmt.pr "report: %s@." path)
         report
     end

(* ---- bivalence ---- *)

let bivalence_cmd =
  let max_runs_arg =
    Arg.(value & opt int 100_000 & info [ "max-runs" ] ~docv:"N" ~doc:"Schedule budget.")
  in
  Cmd.v
    (Cmd.info "bivalence"
       ~doc:"Probe the bivalence horizon of a consensus scenario (Theorem 3).")
  @@ let+ b = bundle_term and+ max_runs = max_runs_arg in
     Fmt.pr "%a@." Bivalence.pp
       (Bivalence.probe ~max_runs ~scenario:b.Scenarios.scenario
          ~decision:b.Scenarios.last_decision ())

(* ---- cas: Fig. 5 linearizability testing ---- *)

let cas_cmd =
  let ops_arg =
    Arg.(value & opt int 2 & info [ "ops" ] ~docv:"N" ~doc:"Operations per process.")
  in
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Random schedules to test.")
  in
  Cmd.v
    (Cmd.info "cas"
       ~doc:
         "Exercise the Fig. 5 hybrid C&S with a random workload and check \
          linearizability.")
  @@ let+ quantum = quantum_arg
     and+ layout = layout_arg
     and+ seed = seed_arg
     and+ ops = ops_arg
     and+ runs = runs_arg
     and+ pool = pool_term
     and+ ex = exports_term in
     let script, s = fig5_subject ~seed ~ops ~quantum ~layout in
     let o =
       Explore.sample ~strategy:Randsched.Naive ~runs ~step_limit:2_000_000 ~jobs:pool.jobs
         ~seed s
     in
     Fmt.pr "%a@." Explore.pp_outcome o;
     let harness = [ ("cas.runs", o.Explore.runs) ] in
     (if exporting ex then
        match o.counterexample with
        | Some c ->
          export ex c.Explore.trace (fun () ->
              Metrics.with_harness (Metrics.of_trace c.Explore.trace) harness)
        | None ->
          (* No failure: export one canonical single-threaded run. *)
          let sum, m =
            fig5_run ~step_limit:2_000_000 ~quantum ~layout ~script
              ~policy:(Policy.random ~seed) ~harness
          in
          export ex sum.Scenarios.cas_trace (fun () -> m));
     if o.counterexample <> None then exit 1

(* ---- bounds: Table 1 calculator ---- *)

let bounds_cmd =
  let p_arg = Arg.(value & opt int 2 & info [ "p" ] ~docv:"P" ~doc:"Processors.") in
  let c_arg =
    Arg.(value & opt int 2 & info [ "c" ] ~docv:"C" ~doc:"Consensus number of base objects.")
  in
  let const_arg =
    Arg.(
      value & opt int 1
      & info [ "stmt-const" ] ~docv:"c"
          ~doc:"Implementation constant (statements per level).")
  in
  let m_arg =
    Arg.(value & opt int 2 & info [ "m" ] ~docv:"M" ~doc:"Max processes per processor.")
  in
  Cmd.v (Cmd.info "bounds" ~doc:"Print the Table 1 thresholds and Fig. 7/8 constants.")
  @@ let+ p = p_arg and+ c = c_arg and+ const = const_arg and+ m = m_arg in
     let open Hwf_core in
     Fmt.pr "P=%d C=%d (statement constant %d, M=%d)@." p c const m;
     (match Bounds.universal_quantum ~c:const ~p ~consensus_number:c with
     | Some q -> Fmt.pr "universal if Q >= %d@." q
     | None -> Fmt.pr "not universal at any quantum (C < P)@.");
     (match Bounds.impossibility_quantum ~p ~consensus_number:c with
     | Some q -> Fmt.pr "not universal if Q <= %d@." q
     | None -> Fmt.pr "no impossibility region (infinite consensus number)@.");
     if c >= p then begin
       let k = Bounds.fig7_k ~p ~consensus_number:c in
       Fmt.pr "Fig 7 instance: K=%d, L=%d levels, ports per processor:@." k
         (Bounds.levels ~m ~p ~k);
       for i = 0 to p - 1 do
         Fmt.pr "  cpu %d: %d@." (i + 1) (Bounds.ports_per_processor ~p ~k ~processor:i)
       done
     end

(* ---- sweep: quantum sweep for a Fig. 7 instance (a Table 1 row) ---- *)

let sweep_cmd =
  let seeds_arg =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc:"Adversarial seeds per point.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the quantum for a Fig. 7 consensus instance under the adversary \
          battery — one Table 1 row, live.")
  @@ let+ cnum = cnum_arg and+ layout = layout_arg and+ seeds = seeds_arg in
     let quanta = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ] in
     let seed_list = List.init seeds Fun.id in
     Fmt.pr "Q sweep, C=%d, layout %a@." cnum Layout.pp layout;
     List.iter
       (fun quantum ->
         let verdicts =
           List.map
             (fun policy ->
               Scenarios.run_multi ~step_limit:8_000_000 ~quantum ~consensus_number:cnum
                 ~layout ~policy:(policy ()) ())
             (Scenarios.adversarial_policies ~seeds:seed_list ~var_prefix:"mc.Cons")
         in
         let broken = List.filter Scenarios.violation verdicts in
         Fmt.pr "  Q=%-5d %s (%d/%d adversarial runs violated)@." quantum
           (if broken = [] then "no violation found" else "VIOLATED          ")
           (List.length broken) (List.length verdicts))
       quanta

(* ---- faults: the wait-freedom certifier ---- *)

let faults_cmd =
  let open Hwf_faults in
  let names = List.map (fun s -> s.Certify.name) (Suite.positive_subjects ()) in
  let subject_arg =
    let doc =
      "Subjects to certify (repeatable): fig3, fig3-time, fig5, fig7, universal. \
       Default: all."
    in
    Arg.(
      value
      & opt_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [ "s"; "subject" ] ~docv:"SUBJECT" ~doc)
  in
  let full_arg =
    let doc = "Exhaustive sweeps (default: strided quick sweeps)." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let negative_arg =
    let doc =
      "Also run the negative control (Fig. 3 with Axiom 2 suspended); it must be \
       rejected, and certification fails if it is not."
    in
    Arg.(value & flag & info [ "negative" ] ~doc)
  in
  let livelock_arg =
    let doc =
      "Also run the watchdog negative control: a synthetic subject whose only \
       cell livelocks. It must degrade to a structured timeout (coverage below \
       100%, exit code 2), not hang. Implies a 2s --cell-wall when none is \
       given."
    in
    Arg.(value & flag & info [ "inject-livelock" ] ~doc)
  in
  (* A cell that never terminates on its own: the step limit is set far
     beyond any wall budget, so only the per-cell deadline (enforced by
     the engine-sink guard) can stop it. *)
  let livelock_subject () =
    Certify.
      {
        name = "livelock";
        config = Layout.to_config ~quantum:8 [ (0, 1) ];
        policy = (fun () -> Policy.first);
        make =
          (fun () ->
            {
              programs =
                [|
                  (fun () ->
                    Eff.invocation "spin" (fun () ->
                        while true do
                          Eff.local "s"
                        done));
                |];
              check = (fun ~survivors:_ _ -> Ok ());
            });
        step_bound = max_int;
        bound_desc = "none (synthetic livelock)";
        step_limit = max_int;
      }
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Certify wait-freedom of the core algorithms under fault-plan sweeps \
          (crash points, adversarial costs, chaos), printing a report table \
          (domain-parallel with --jobs).")
  @@ let+ only = subject_arg
     and+ seed = seed_arg
     and+ full = full_arg
     and+ negative = negative_arg
     and+ inject_livelock = livelock_arg
     and+ pool = pool_term
     and+ resil = resil_term ~retries:true
     and+ ex = exports_term in
     Resil.install_interrupt_handlers ();
     let cell_wall_s =
       match (resil.cell_wall, inject_livelock) with None, true -> Some 2.0 | v, _ -> v
     in
     let c =
       Suite.certify_all ~quick:(not full) ~seed ~only ~negative ~jobs:pool.jobs
         ~retry:resil.retry ?cell_wall_s ?checkpoint:resil.checkpoint ~resume:resil.resume ()
     in
     let livelock =
       if not inject_livelock then []
       else
         let subject = livelock_subject () in
         let report = Certify.certify ~retry:resil.retry ?cell_wall_s subject [ Plan.none ] in
         let verdict =
           if Resil.complete report.Certify.coverage then "COMPLETED (watchdog control bug!)"
           else Fmt.str "TIMED OUT (expected; %a)" Resil.pp_coverage report.Certify.coverage
         in
         [ { Suite.subject; report; verdict; ok = true } ]
     in
     let negative = Option.to_list c.Suite.negative in
     let coverage =
       List.fold_left
         (fun acc row -> Resil.coverage_union acc row.Suite.report.Certify.coverage)
         c.coverage livelock
     in
     let header = [ "subject"; "plans"; "passed"; "blocked"; "worst"; "bound"; "verdict" ] in
     let rows = header :: List.map Suite.columns (c.positives @ livelock @ negative) in
     let widths =
       List.init (List.length header) (fun i ->
           List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 rows)
     in
     List.iteri
       (fun k r ->
         Fmt.pr "%s@." (String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths r));
         if k = 0 then
           Fmt.pr "%s@." (String.concat "  " (List.map (fun w -> String.make w '-') widths)))
       rows;
     List.iter
       (fun r -> if not r.Suite.ok then Fmt.pr "@.%a@." Certify.pp_report r.report)
       c.positives;
     (* Exports: one deterministic judged run — the first chosen subject's
        first campaign plan — plus the campaign totals as harness rows. *)
     (if exporting ex then
        match c.positives with
        | [] -> ()
        | first :: _ -> (
          match Suite.campaign ~quick:(not full) ~seed first.subject with
          | [] -> ()
          | plan :: _ ->
            let _, r, _ = Certify.run_plan first.subject plan in
            export ex r.Engine.trace (fun () ->
                let sum f = List.fold_left (fun acc row -> acc + f row.Suite.report) 0 in
                Metrics.with_harness (Metrics.of_trace r.Engine.trace)
                  ([
                     ("faults.plans", sum (fun r -> r.Certify.plans) c.positives);
                     ("faults.passed", sum (fun r -> r.Certify.passed) c.positives);
                     ("faults.blocked", sum (fun r -> r.Certify.blocked) c.positives);
                     ( "faults.worst_own_steps",
                       List.fold_left
                         (fun acc row -> max acc row.Suite.report.Certify.worst_own_steps)
                         0 c.positives );
                   ]
                  @ Resil.coverage_rows ~prefix:"faults" coverage))));
     (* Harness verdict first: a campaign with incomplete coverage is a
        partial result, so exit 2 regardless of what the evaluated cells
        say; only a complete campaign may exit 1 on failures. *)
     exit_if_incomplete coverage;
     if not (List.for_all (fun r -> r.Suite.ok) (c.positives @ negative)) then
       exit Resil.exit_counterexample

(* ---- stats: the observability report ---- *)

let stats_cmd =
  let open Hwf_core in
  let subject_term =
    scenario_flags
      (fun impl cnum quantum layout -> (impl, cnum, quantum, layout))
      [ ("fig5", `Fig5); ("fig7", `Fig7) ]
      "Subject: fig5 (hybrid C&S, Lemma 2 margin) or fig7 (multiprocessor \
       consensus, Lemma 2/3 margins)."
  in
  let ops_arg =
    Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N" ~doc:"Operations per process (fig5).")
  in
  let max_runs_arg =
    let doc = "Schedule budget for the harness-statistics exploration." in
    Arg.(value & opt int 2_000 & info [ "max-runs" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scenario with live metrics collection and print the observability \
          report: per-process scheduling metrics, measured access failures vs the \
          Lemma 2/3 bounds (with margins), and search-harness counters.")
  @@ let+ impl, cnum, quantum, layout = subject_term
     and+ policy, seed = policy_term
     and+ ops = ops_arg
     and+ max_runs = max_runs_arg
     and+ { jobs; dpor } = search_term
     and+ ex = exports_term in
     (* One measured run, with the algorithm's access-failure tap
        reported against the paper's envelopes. *)
     let metrics, trace, scenario =
       match impl with
       | `Fig5 ->
         let script, scenario = fig5_subject ~seed ~ops ~quantum ~layout in
         let sum, m =
           fig5_run ~step_limit:8_000_000 ~quantum ~layout ~script ~policy ~harness:[]
         in
         Fmt.pr "fig5 run: finished=%b linearizable=%b well-formed=%b@."
           sum.Scenarios.cas_finished sum.Scenarios.linearizable
           sum.Scenarios.cas_well_formed;
         (m, sum.Scenarios.cas_trace, scenario)
       | `Fig7 ->
         let config = Layout.to_config ~quantum layout in
         let mpp = Config.max_per_processor config in
         let collector = Metrics.collector config in
         let sum =
           Scenarios.run_multi ~step_limit:8_000_000 ~sink:(Metrics.sink collector) ~quantum
             ~consensus_number:cnum ~layout ~policy ()
         in
         let p = config.Config.processors in
         let k = Bounds.fig7_k ~p ~consensus_number:cnum in
         Fmt.pr "fig7 run: finished=%b agreed=%b valid=%b well-formed=%b@."
           sum.Scenarios.finished sum.Scenarios.agreed sum.Scenarios.valid
           sum.Scenarios.well_formed;
         let m =
           Metrics.with_bounds (Metrics.finish collector)
             [
               {
                 Metrics.name = "AF_diff sites (Lemma 2)";
                 measured = List.length sum.Scenarios.af_diff;
                 bound = Some (Bounds.af_diff_bound ~m:mpp);
               };
               {
                 Metrics.name = "AF_same sites (Lemma 3)";
                 measured = List.length sum.Scenarios.af_same;
                 bound = Some (Bounds.af_same_bound ~m:mpp ~p ~k ~l:sum.Scenarios.levels);
               };
             ]
         in
         let m =
           Metrics.with_harness m
             [
               ("mc.af_same_events", sum.Scenarios.af_same_events);
               ("mc.af_diff_events", sum.Scenarios.af_diff_events);
               ("mc.exhausted", sum.Scenarios.exhausted);
               ("mc.levels", sum.Scenarios.levels);
             ]
         in
         (m, sum.Scenarios.trace, scenario_of `Fig7 cnum quantum layout)
     in
     Fmt.pr "@.%a@." Metrics.pp metrics;
     (* Harness statistics: a bounded exploration of the same scenario
        with the search-layer counters on. Runs/sec and the pool picture
        depend on wall clock and domain racing — display-only, never
        exported. *)
     let estats = Explore.make_stats ~jobs scenario in
     let t0 = Unix.gettimeofday () in
     let o =
       Explore.explore ~max_runs ~step_limit:2_000_000 ~jobs ~dpor ~stats:estats scenario
     in
     let dt = Unix.gettimeofday () -. t0 in
     Fmt.pr "@.search: %d runs in %.3fs (%.0f runs/sec, jobs=%d)%s@." o.Explore.runs dt
       (if dt > 0. then float_of_int o.Explore.runs /. dt else 0.)
       jobs
       (if o.Explore.exhaustive then ", exhaustive" else "");
     Array.iteri
       (fun i r -> if r > 0 then Fmt.pr "  subtree %d: %d runs@." i r)
       (Explore.stats_subtree_runs estats);
     Fmt.pr "sleep sets: %d branches pruned@." (Explore.stats_pruned estats);
     Fmt.pr "source sets: %d blocked prefixes discarded@." (Explore.stats_source_prunes estats);
     let races = Hwf_obs.Races.of_trace trace in
     Fmt.pr "races: %d on %d variable(s)%s@."
       (Hwf_obs.Races.count races)
       (List.length races.Hwf_obs.Races.racy_vars)
       (if Hwf_obs.Races.racy races then
          Fmt.str " (%a)" Fmt.(list ~sep:comma string) races.Hwf_obs.Races.racy_vars
        else "");
     let pool = Explore.stats_pool estats in
     Fmt.pr "pool: %d cells evaluated, %d skipped@."
       (Hwf_par.Pool.stats_evaluated pool)
       (Hwf_par.Pool.stats_skipped pool);
     Array.iteri
       (fun w c -> if c > 0 then Fmt.pr "  domain %d: %d cells@." w c)
       (Hwf_par.Pool.stats_per_worker pool);
     export ex trace (fun () -> Metrics.with_harness metrics (explore_rows o))

(* ---- trace: Fig. 1/2 demo ---- *)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Render the interleaving of simple object accesses (Figs. 1-2).")
  @@ let+ quantum = quantum_arg and+ layout = layout_arg and+ policy, _ = policy_term in
     let x = Shared.make "obj" 0 in
     let bodies =
       Array.init (List.length layout) (fun _ () ->
           Eff.invocation "access" (fun () ->
               let v = Shared.read x in
               Eff.local "compute";
               Shared.write x (v + 1)))
     in
     let r, _ = run_once ~config:(Layout.to_config ~quantum layout) ~policy bodies in
     Fmt.pr "%s@." (Render.lanes r.trace);
     Fmt.pr "well-formed: %b@." (Wellformed.is_well_formed r.trace)

(* ---- lint: the model-conformance linter ---- *)

let lint_cmd =
  let open Hwf_lint in
  let subjects_arg =
    let doc =
      Fmt.str "Subject to lint (repeatable; default: all). One of %a."
        Fmt.(list ~sep:comma string)
        Registry.names
    in
    Arg.(value & opt_all (enum (List.map (fun n -> (n, n)) Registry.names)) []
         & info [ "s"; "subject" ] ~docv:"NAME" ~doc)
  in
  let budget_arg =
    let doc = "Schedule battery size: replays per subject (round-robin, the \
               deterministic policies, then seeded randoms)." in
    Arg.(value & opt int 12 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let report_arg =
    let doc = "Also write the machine-readable hwf-lint/1 JSONL report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let corpus_arg =
    let doc =
      "Negative-control mode: lint the known-bad corpus instead of the \
       registry and require every case to be rejected with its expected \
       rule. Exit 1 if any checker fails to fire."
    in
    Arg.(value & flag & info [ "corpus" ] ~doc)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Model-conformance linter: replay each algorithm under a schedule \
          battery, reconstruct its statement-level CFG, and check atomicity, \
          quantum shape (derived constant c vs. the theorem preconditions), \
          wait-freedom loop bounds and priority-change legality. Exit 1 on \
          any error finding.")
  @@ let+ subjects = subjects_arg
     and+ budget = budget_arg
     and+ report = report_arg
     and+ corpus = corpus_arg in
     if corpus then
       let module C = Hwf_lint_corpus.Corpus in
       corpus_controls ~passed:"known-bad cases rejected" ~failed:"case(s) not rejected"
         (fun (c : C.case) ->
           let o, fired = C.fires ~budget c in
           Fmt.pr "%-24s %-28s %s@." o.Lint.spec.Lint.name c.C.expected_rule
             (if fired then "rejected (ok)" else "NOT REJECTED");
           (o.Lint.spec.Lint.name, fired))
         (C.all ())
     else begin
       let specs =
         match subjects with
         | [] -> Registry.all ()
         | names -> List.filter_map Registry.find names
       in
       let outcomes = List.map (Lint.run ~budget) specs in
       List.iter (Fmt.pr "%a@." Report.pp_outcome) outcomes;
       Option.iter (fun path -> Report.write ~path outcomes) report;
       let errors = List.concat_map Lint.errors outcomes in
       if errors = [] then Fmt.pr "lint: %d subject(s) clean@." (List.length outcomes)
       else begin
         Fmt.epr "lint: %d error(s)@." (List.length errors);
         exit 1
       end
     end

(* ---- check-json ---- *)

let check_json_cmd =
  let files_arg = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "check-json"
       ~doc:
         "Validate exported files against the schema table (hwf-trace/1, \
          hwf-metrics/1, hwf-analyze/1, hwf-lint/1, hwf-ckpt/2 JSON lines and \
          the BENCH_*.json files). Exit 0 when every file is valid, 1 when \
          any is not, 2 when no file is given.")
  @@ let+ files = files_arg in
     if files = [] then begin
       Fmt.epr "usage: hybridsim check-json FILE...@.";
       exit Resil.exit_harness
     end;
     let ok =
       List.fold_left
         (fun ok path ->
           match Hwf_obs.Json.Schema.validate_file path with
           | Ok summary ->
             Fmt.pr "%s: %s@." path summary;
             ok
           | Error e ->
             Fmt.epr "%s: %s@." path e;
             false)
         true files
     in
     if not ok then exit 1

(* Exit-code taxonomy (docs/ROBUSTNESS.md): 0 clean pass, 1 the subject
   failed (counterexample / certification failure / lint error), 2 the
   harness failed (timeout, interrupt, bad input, incomplete coverage).
   Subcommands exit 1 themselves; every usage error and every uncaught
   exception lands here as 2, so none can pass for a counterexample. *)
let () =
  let doc =
    "Wait-free synchronization under hybrid priority/quantum scheduling \
     (Anderson & Moir, PODC 1999) — simulator CLI."
  in
  let cmd =
    Cmd.group
      (Cmd.info "hybridsim" ~version:"1.0.0" ~doc)
      [
        run_cmd; explore_cmd; replay_cmd; analyze_cmd; bivalence_cmd; cas_cmd; bounds_cmd;
        sweep_cmd; faults_cmd; stats_cmd; trace_cmd; lint_cmd; check_json_cmd;
      ]
  in
  match Cmd.eval_value ~catch:false cmd with
  | Ok (`Ok () | `Help | `Version) -> exit Resil.exit_ok
  | Error (`Parse | `Term | `Exn) -> exit Resil.exit_harness
  | exception Resil.Deadline_exceeded m ->
    Fmt.epr "harness timeout: %s@." m;
    exit Resil.exit_harness
  | exception e ->
    Fmt.epr "harness error: %s@." (Printexc.to_string e);
    exit Resil.exit_harness
