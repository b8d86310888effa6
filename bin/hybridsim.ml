(* hybridsim — command-line driver for the hybrid-scheduling wait-free
   synchronization library (Anderson & Moir, PODC 1999 reproduction).

   Subcommands expose the simulator directly: run a consensus algorithm
   once under a chosen scheduler and render the interleaving, model-check
   a scenario, probe bivalence, linearizability-test the Fig. 5 C&S, or
   print the Table 1 thresholds. The full experiment suite lives in
   `dune exec bench/main.exe`. *)

open Cmdliner
open Hwf_sim
open Hwf_adversary
open Hwf_workload
module Resil = Hwf_resil.Resil

(* ---- shared argument parsing ---- *)

let layout_conv =
  let parse s =
    try
      let entries = String.split_on_char ',' s in
      let layout =
        List.map
          (fun e ->
            match String.split_on_char ':' (String.trim e) with
            | [ cpu; pri ] -> (int_of_string cpu, int_of_string pri)
            | _ -> failwith "bad entry")
          entries
      in
      if layout = [] then failwith "empty layout";
      Ok layout
    with _ ->
      Error (`Msg (Printf.sprintf "cannot parse layout %S (expected cpu:pri,cpu:pri,...)" s))
  in
  let print ppf l = Fmt.pf ppf "%a" Layout.pp l in
  Arg.conv (parse, print)

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

let seed_arg =
  let doc = "PRNG seed for randomized schedulers." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel search paths (explore subtrees, \
     fault-plan cells), served from a work-stealing pool. Results are \
     byte-identical to --jobs 1 at any setting; the default is the machine's \
     recommended domain count."
  in
  Arg.(
    value
    & opt int (Hwf_par.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let grain_arg =
  let doc =
    "Cells per work-stealing claim. Smaller grains balance better, larger \
     grains amortize claim overhead; the default picks automatically from the \
     cell count and --jobs (docs/PARALLELISM.md has the tuning guide). Never \
     affects results, only scheduling."
  in
  Arg.(value & opt (some int) None & info [ "grain" ] ~docv:"G" ~doc)

let no_dpor_arg =
  let doc =
    "Disable sleep-set pruning and explore every schedule exhaustively. \
     Pruning never changes verdicts or the first counterexample, so this is \
     an escape hatch for cross-checking it (and the only option when a \
     scenario's checks read the simulated clock mid-run)."
  in
  Arg.(value & flag & info [ "no-dpor" ] ~doc)

(* ---- resilience options (docs/ROBUSTNESS.md) ---- *)

let checkpoint_arg =
  let doc =
    "Journal completed campaign cells to $(docv) (schema hwf-ckpt/1). With \
     --resume, cells already journaled are restored instead of re-run."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume from the --checkpoint journal: skip finished cells. The journal \
     must match the campaign (same subject and parameters); a clean campaign \
     killed and resumed reproduces the uninterrupted output."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let cell_wall_arg =
  let doc =
    "Wall-clock budget per campaign cell, in seconds. A cell exceeding it \
     becomes a structured timeout (coverage drops below 100% and the exit \
     code is 2) instead of hanging the campaign."
  in
  Arg.(value & opt (some float) None & info [ "cell-wall" ] ~docv:"SECS" ~doc)

let retries_arg =
  let doc =
    "Attempts per cell (including the first) for timed-out or transiently \
     failing cells, with exponential backoff; retried cells are demoted \
     (no counterexample shrinking)."
  in
  Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)

let retry_of_attempts n =
  if n <= 1 then Resil.no_retry else { Resil.default_retry with attempts = n }

(* Exit-code taxonomy (docs/ROBUSTNESS.md): 0 clean pass, 1 the subject
   failed (counterexample / certification failure / lint error), 2 the
   harness failed (timeout, interrupt, bad input, incomplete coverage).
   [guarded] maps stray harness exceptions onto 2 so no subcommand can
   leak an uncaught exception as a bogus "counterexample". *)
let guarded f =
  try f () with
  | Resil.Deadline_exceeded m ->
    Fmt.epr "harness timeout: %s@." m;
    exit Resil.exit_harness
  | e ->
    Fmt.epr "harness error: %s@." (Printexc.to_string e);
    exit Resil.exit_harness

(* Incomplete coverage is a harness verdict, not a subject verdict. *)
let exit_if_incomplete coverage =
  if not (Resil.complete coverage) then begin
    Fmt.epr "harness: incomplete campaign — %a@." Resil.pp_coverage coverage;
    exit Resil.exit_harness
  end

let policy_arg =
  let doc = "Scheduling policy: random, rr (round-robin), first, stagger." in
  Arg.(
    value
    & opt (enum [ ("random", `Random); ("rr", `Rr); ("first", `First); ("stagger", `Stagger) ]) `Random
    & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let make_policy policy seed =
  match policy with
  | `Random -> Policy.random ~seed
  | `Rr -> Policy.round_robin ()
  | `First -> Policy.first
  | `Stagger -> Stagger.max_interleave ()

let impl_arg =
  let doc = "Consensus implementation: fig3 (uniprocessor), fig7, fig9 (fair)." in
  Arg.(
    value
    & opt (enum [ ("fig3", `Fig3); ("fig7", `Fig7); ("fig9", `Fig9) ]) `Fig3
    & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)

let cnum_arg =
  let doc = "Consensus number C of the base objects (fig7/fig9)." in
  Arg.(value & opt int 2 & info [ "c"; "consensus-number" ] ~docv:"C" ~doc)

let render_arg =
  let doc = "Render the interleaving diagram of the run." in
  Arg.(value & flag & info [ "r"; "render" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the run's event trace as JSON lines (schema hwf-trace/1; see \
     docs/OBSERVABILITY.md). Deterministic: identical bytes across --jobs \
     settings."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write run metrics as JSON lines (schema hwf-metrics/1; see \
     docs/OBSERVABILITY.md). Deterministic: identical bytes across --jobs \
     settings."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let export_trace path trace =
  Hwf_obs.Jsonl.write_trace ~path trace;
  Fmt.pr "trace: %s@." path

let export_metrics path m =
  Hwf_obs.Jsonl.write_metrics ~path m;
  Fmt.pr "metrics: %s@." path

let scenario_of impl cnum quantum layout =
  let impl =
    match impl with
    | `Fig3 -> Scenarios.Fig3
    | `Fig7 -> Scenarios.Fig7 { consensus_number = cnum }
    | `Fig9 -> Scenarios.Fig9 { consensus_number = cnum }
  in
  Scenarios.consensus ~name:"cli" ~impl ~quantum ~layout

(* ---- run: one consensus execution ---- *)

let run_cmd =
  let action impl cnum quantum layout policy seed render trace_out metrics_out =
    let b = scenario_of impl cnum quantum layout in
    let config = b.Scenarios.scenario.Explore.config in
    let instance = b.Scenarios.scenario.Explore.make () in
    (* Metrics are collected live through the engine's observer hook;
       when no sink is requested, no collector exists and the engine
       pays a single match per event. *)
    let collector =
      match metrics_out with
      | None -> None
      | Some _ -> Some (Hwf_obs.Metrics.collector config)
    in
    let r =
      Engine.run ~step_limit:20_000_000
        ?observer:(Option.map Hwf_obs.Metrics.feed collector)
        ~config ~policy:(make_policy policy seed) instance.Explore.programs
    in
    let wf = Wellformed.check r.trace in
    Fmt.pr "finished: %b@." (Array.for_all Fun.id r.finished);
    Fmt.pr "statements: %d@." (Trace.statements r.trace);
    Fmt.pr "well-formed: %b@."
      (wf = []);
    List.iter (fun v -> Fmt.pr "  %a@." Wellformed.pp_violation v) wf;
    let outs = b.Scenarios.last_outputs () in
    Array.iteri
      (fun pid o ->
        Fmt.pr "p%d decided: %s@." (pid + 1)
          (match o with Some v -> string_of_int v | None -> "-"))
      outs;
    (match b.Scenarios.last_decision () with
    | Some v -> Fmt.pr "consensus: %d@." v
    | None -> Fmt.pr "consensus: DISAGREEMENT OR INCOMPLETE@.");
    if render then Fmt.pr "@.%s@." (Render.lanes r.trace);
    Option.iter (fun path -> export_trace path r.trace) trace_out;
    Option.iter
      (fun path -> export_metrics path (Hwf_obs.Metrics.finish (Option.get collector)))
      metrics_out;
    if b.Scenarios.last_decision () = None then exit 1
  in
  let term =
    Term.(
      const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ policy_arg
      $ seed_arg $ render_arg $ trace_out_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a consensus algorithm once and report the decision.")
    term

(* ---- explore: model checking ---- *)

let explore_cmd =
  (* Explore accepts one subject beyond the consensus figures: the
     universal queue, whose verdict replays a Hist-recorded history
     through the linearizability checker — the scenario family that
     per-processor stamp clocks keep prunable (docs/PARALLELISM.md). *)
  let impl_arg =
    let doc =
      "Scenario: fig3 (uniprocessor), fig7, fig9 (fair), or queue (universal \
       queue over Fig. 7 consensus, history-checked via Lincheck)."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("fig3", `Fig3); ("fig7", `Fig7); ("fig9", `Fig9); ("queue", `Queue) ])
          `Fig3
      & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)
  in
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
  let action impl cnum quantum layout pb max_runs do_shrink save jobs grain
      no_dpor indep ckpt resume cell_wall trace_out metrics_out strategy runs
      depth seed =
   guarded @@ fun () ->
    Resil.install_interrupt_handlers ();
    let scenario =
      match impl with
      | `Queue ->
        Scenarios.universal_queue ~name:"cli" ~quantum ~consensus_number:cnum
          ~layout ~ops_per:1
      | (`Fig3 | `Fig7 | `Fig9) as impl ->
        (scenario_of impl cnum quantum layout).Scenarios.scenario
    in
    let estats = Explore.make_stats ~jobs scenario in
    let relation =
      if not indep then None
      else begin
        let module Lint = Hwf_lint.Lint in
        let module Indep = Hwf_lint.Indep in
        (* The certifier replays [make] on its own; thread each fresh
           instance's verdict closure through so data escapes into the
           harness check are caught, not just trace divergences. *)
        let current_check = ref (fun (_ : Engine.result) -> Ok ()) in
        let make () =
          let i = scenario.Explore.make () in
          current_check := i.Explore.check;
          i.Explore.programs
        in
        let spec =
          {
            Lint.name = scenario.Explore.name;
            config = scenario.Explore.config;
            make;
            expect = Hwf_lint.Checks.Helping;
            min_quantum = 1;
            theorem = "independence oracle";
            fair_only = true;
            step_limit = 8_000_000;
          }
        in
        let outcome = Lint.run spec in
        match
          Indep.certified_relation ~check:(fun r -> !current_check r)
            ~config:scenario.Explore.config ~make outcome
        with
        | Error m ->
          Fmt.epr "independence oracle REFUTED: %s@." m;
          exit 1
        | Ok (t, cert) ->
          Fmt.pr "oracle: %a@." Indep.pp_summary (Indep.summary t);
          Fmt.pr "oracle: %a@." Indep.pp_certification cert;
          Some { Explore.rname = "static"; rel = Indep.relation t }
      end
    in
    let o =
      match strategy with
      | "dfs" ->
        Explore.explore ?preemption_bound:pb ~max_runs ~step_limit:8_000_000 ~jobs
          ?grain ~dpor:(not no_dpor) ?relation ~stats:estats
          ?cell_wall_s:cell_wall ?checkpoint:ckpt ~resume scenario
      | s -> (
        match Randsched.of_name ~depth s with
        | Error m ->
          Fmt.epr "%s@." m;
          exit 2
        | Ok strategy ->
          let o =
            Explore.sample ~runs ~step_limit:8_000_000 ~jobs ?grain ~stats:estats
              ~strategy ~seed scenario
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
        (Explore.stats_source_prunes estats);
      (* Taint probe on the canonical first schedule: a clock read
         (Eff.now) disarms pruning; per-processor stamps (Eff.stamp) do
         not (docs/PARALLELISM.md). *)
      let probe, _ = Schedule.replay scenario [] in
      let tr = probe.Engine.trace in
      Fmt.pr "clock taint: %s (%d stamp reads, %d clock reads)@."
        (if Trace.now_reads tr = 0 then "none (pruning armed)"
         else "TAINTED (pruning disarmed)")
        (Trace.stamp_reads tr) (Trace.now_reads tr)
    end;
    (* Exports are schedule-deterministic: the counterexample's replayed
       trace if one was found, otherwise the canonical first (all-zeros)
       schedule — both identical across --jobs settings whenever the
       outcome is. *)
    let export schedule =
      let result, _ = Schedule.replay scenario schedule in
      Option.iter (fun path -> export_trace path result.Engine.trace) trace_out;
      Option.iter
        (fun path ->
          let m = Hwf_obs.Metrics.of_trace result.Engine.trace in
          let m =
            Hwf_obs.Metrics.with_harness m
              [
                ("explore.runs", o.Explore.runs);
                ("explore.exhaustive", if o.Explore.exhaustive then 1 else 0);
              ]
          in
          export_metrics path m)
        metrics_out
    in
    match o.counterexample with
    | None ->
      if trace_out <> None || metrics_out <> None then export [];
      exit_if_incomplete o.Explore.coverage
    | Some c ->
      let schedule =
        if do_shrink then begin
          let small = Shrink.shrink scenario c.decisions in
          Fmt.pr "shrunk %d decisions to %d@." (List.length c.decisions)
            (List.length small);
          small
        end
        else c.decisions
      in
      let result, _ = Schedule.replay scenario schedule in
      Fmt.pr "@.%s@.schedule: %s@." (Render.lanes result.trace)
        (Schedule.to_string schedule);
      (match save with
      | Some path ->
        Schedule.save ~path schedule;
        Fmt.pr "saved to %s@." path
      | None -> ());
      export schedule;
      exit Resil.exit_counterexample
  in
  let term =
    Term.(
      const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ pb_arg
      $ max_runs_arg $ shrink_arg $ save_arg $ jobs_arg $ grain_arg $ no_dpor_arg
      $ indep_arg $ checkpoint_arg $ resume_arg $ cell_wall_arg $ trace_out_arg
      $ metrics_out_arg $ strategy_arg $ runs_arg $ depth_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check a consensus scenario over scheduler decisions \
          (domain-parallel with --jobs), exhaustively or with randomized \
          sampling strategies (--strategy naive|pct|pos|surw).")
    term

(* ---- replay: re-judge a saved schedule ---- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Schedule file (from explore --save).")
  in
  let action impl cnum quantum layout file =
    let b = scenario_of impl cnum quantum layout in
    match Schedule.load ~n:(Hwf_sim.Config.n b.Scenarios.scenario.config) ~path:file () with
    | Error m ->
      Fmt.epr "%s@." m;
      exit 2
    | Ok schedule -> (
      let result, _ = Schedule.replay b.Scenarios.scenario schedule in
      Fmt.pr "%s@." (Render.lanes result.trace);
      match Schedule.verdict b.Scenarios.scenario schedule with
      | Ok () -> Fmt.pr "verdict: passes@."
      | Error m ->
        Fmt.pr "verdict: FAILS (%s)@." m;
        exit 1)
  in
  let term =
    Term.(const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ file_arg)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a saved schedule against a scenario and re-judge it.")
    term

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
  let action impl cnum quantum layout policy seed report corpus =
   guarded @@ fun () ->
    if corpus then begin
      let module C = Hwf_race_corpus.Corpus in
      let misses =
        List.filter_map
          (fun (c : C.case) ->
            let r = C.analyze c in
            let ok = C.verdict_matches c r in
            Fmt.pr "%-16s expected %-5s found %d race(s)%s %s@." c.C.name
              (if c.C.racy then "racy" else "clean")
              (Hwf_obs.Races.count r)
              (match c.C.var with Some v -> " on " ^ v | None -> "")
              (if ok then "(ok)" else "MISMATCH");
            if ok then None else Some c.C.name)
          (C.all)
      in
      match misses with
      | [] ->
        Fmt.pr "corpus: all %d race-certifier controls passed@."
          (List.length C.all)
      | ms ->
        Fmt.epr "corpus: %d control(s) failed: %a@." (List.length ms)
          Fmt.(list ~sep:comma string)
          ms;
        exit 1
    end
    else begin
      let b = scenario_of impl cnum quantum layout in
      let config = b.Scenarios.scenario.Explore.config in
      let instance = b.Scenarios.scenario.Explore.make () in
      let r =
        Engine.run ~step_limit:20_000_000 ~config
          ~policy:(make_policy policy seed) instance.Explore.programs
      in
      let a = Analysis.of_trace r.trace in
      Fmt.pr "%a@." Analysis.pp_summary a;
      List.iter
        (fun (i : Analysis.inv_stat) ->
          Fmt.pr "  %a.%d %-8s %3d stmts, %d same-level / %d higher-level preemptions%s@."
            Proc.pp_pid i.pid i.inv i.label i.statements i.same_level_preemptions
            i.higher_level_preemptions
            (if i.completed then "" else " (incomplete)"))
        a.invocations;
      let races = Hwf_obs.Races.of_trace r.trace in
      Fmt.pr "@.%a@." Hwf_obs.Races.pp_report races;
      Option.iter
        (fun path ->
          Hwf_obs.Jsonl.write_races ~path ~config races;
          Fmt.pr "report: %s@." path)
        report
    end
  in
  let term =
    Term.(
      const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ policy_arg
      $ seed_arg $ report_arg $ corpus_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run a scenario once and print per-invocation preemption analytics \
          plus the happens-before race report (or, with --corpus, check the \
          race certifier against its known-racy/known-clean controls).")
    term

(* ---- bivalence ---- *)

let bivalence_cmd =
  let max_runs_arg =
    Arg.(value & opt int 100_000 & info [ "max-runs" ] ~docv:"N" ~doc:"Schedule budget.")
  in
  let action impl cnum quantum layout max_runs =
    let b = scenario_of impl cnum quantum layout in
    let p =
      Bivalence.probe ~max_runs ~scenario:b.Scenarios.scenario
        ~decision:b.Scenarios.last_decision ()
    in
    Fmt.pr "%a@." Bivalence.pp p
  in
  let term =
    Term.(const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ max_runs_arg)
  in
  Cmd.v
    (Cmd.info "bivalence"
       ~doc:"Probe the bivalence horizon of a consensus scenario (Theorem 3).")
    term

(* ---- cas: Fig. 5 linearizability testing ---- *)

let cas_cmd =
  let ops_arg =
    Arg.(value & opt int 2 & info [ "ops" ] ~docv:"N" ~doc:"Operations per process.")
  in
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Random schedules to test.")
  in
  let action quantum layout seed ops runs jobs grain trace_out metrics_out =
    let n = List.length layout in
    let script = Scenarios.random_script ~seed ~n ~ops_per:ops in
    let s = Scenarios.hybrid_cas ~name:"cli" ~quantum ~layout ~script in
    let o = Explore.sample ~strategy:Randsched.Naive
        ~runs ~step_limit:2_000_000 ~jobs ?grain ~seed s in
    Fmt.pr "%a@." Explore.pp_outcome o;
    (if trace_out <> None || metrics_out <> None then
       match o.counterexample with
       | Some c ->
         Option.iter (fun path -> export_trace path c.Explore.trace) trace_out;
         Option.iter
           (fun path ->
             let m = Hwf_obs.Metrics.of_trace c.Explore.trace in
             export_metrics path
               (Hwf_obs.Metrics.with_harness m [ ("cas.runs", o.Explore.runs) ]))
           metrics_out
       | None ->
         (* No failure: export one canonical single-threaded run (live
            collector), with the Fig. 5 access-failure tap reported
            against the Lemma 2 envelope. *)
         let collector =
           Hwf_obs.Metrics.collector (Hwf_workload.Layout.to_config ~quantum layout)
         in
         let sum =
           Scenarios.run_cas ~step_limit:2_000_000
             ~observer:(Hwf_obs.Metrics.feed collector)
             ~quantum ~layout ~script ~policy:(Policy.random ~seed) ()
         in
         Option.iter (fun path -> export_trace path sum.Scenarios.cas_trace) trace_out;
         Option.iter
           (fun path ->
             let st = sum.Scenarios.cas_stats in
             let m = Hwf_obs.Metrics.finish collector in
             let m =
               Hwf_obs.Metrics.with_bounds m
                 [
                   {
                     Hwf_obs.Metrics.name = "cas.worst_af_diff (Lemma 2)";
                     measured = st.Hwf_core.Hybrid_cas.worst_af_diff;
                     bound =
                       Some
                         (Hwf_core.Bounds.af_diff_bound
                            ~m:
                              (Config.max_per_processor
                                 (Hwf_workload.Layout.to_config ~quantum layout)));
                   };
                   {
                     Hwf_obs.Metrics.name = "cas.worst_af_same";
                     measured = st.Hwf_core.Hybrid_cas.worst_af_same;
                     bound = None;
                   };
                 ]
             in
             let m =
               Hwf_obs.Metrics.with_harness m
                 [
                   ("cas.runs", o.Explore.runs);
                   ("cas.ops", st.Hwf_core.Hybrid_cas.ops);
                   ("cas.appends", st.Hwf_core.Hybrid_cas.appends);
                   ("cas.af_diff_total", st.Hwf_core.Hybrid_cas.af_diff);
                   ("cas.af_same_total", st.Hwf_core.Hybrid_cas.af_same);
                   ("cas.scan_failures", st.Hwf_core.Hybrid_cas.scan_failures);
                 ]
             in
             export_metrics path m)
           metrics_out);
    if o.counterexample <> None then exit 1
  in
  let term =
    Term.(
      const action $ quantum_arg $ layout_arg $ seed_arg $ ops_arg $ runs_arg
      $ jobs_arg $ grain_arg $ trace_out_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "cas"
       ~doc:
         "Exercise the Fig. 5 hybrid C&S with a random workload and check \
          linearizability.")
    term

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
  let action p c const m =
    let open Hwf_core in
    Fmt.pr "P=%d C=%d (statement constant %d, M=%d)@." p c const m;
    (match Bounds.universal_quantum ~c:const ~p ~consensus_number:c with
    | Some q -> Fmt.pr "universal if Q >= %d@." q
    | None -> Fmt.pr "not universal at any quantum (C < P)@.");
    (match Bounds.impossibility_quantum ~p ~consensus_number:c with
    | Some q -> Fmt.pr "not universal if Q <= %d@." q
    | None -> Fmt.pr "no impossibility region (infinite consensus number)@.");
    if c >= p then begin
      let k = min c (2 * p) - p in
      Fmt.pr "Fig 7 instance: K=%d, L=%d levels, ports per processor:@." k
        (Bounds.levels ~m ~p ~k);
      for i = 0 to p - 1 do
        Fmt.pr "  cpu %d: %d@." (i + 1) (Bounds.ports_per_processor ~p ~k ~processor:i)
      done
    end
  in
  let term = Term.(const action $ p_arg $ c_arg $ const_arg $ m_arg) in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the Table 1 thresholds and Fig. 7/8 constants.")
    term

(* ---- sweep: quantum sweep for a Fig. 7 instance (a Table 1 row) ---- *)

let sweep_cmd =
  let seeds_arg =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"N" ~doc:"Adversarial seeds per point.")
  in
  let action cnum layout seeds =
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
  in
  let term = Term.(const action $ cnum_arg $ layout_arg $ seeds_arg) in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the quantum for a Fig. 7 consensus instance under the adversary \
          battery — one Table 1 row, live.")
    term

(* ---- faults: the wait-freedom certifier ---- *)

let faults_cmd =
  let open Hwf_faults in
  let subjects =
    [
      ("fig3", Suite.fig3);
      ("fig3-time", Suite.fig3_time);
      ("fig5", Suite.fig5);
      ("fig7", Suite.fig7);
      ("universal", Suite.universal);
    ]
  in
  let subject_arg =
    let doc =
      "Subjects to certify (repeatable): fig3, fig3-time, fig5, fig7, universal. \
       Default: all."
    in
    Arg.(
      value
      & opt_all (enum (List.map (fun (n, _) -> (n, n)) subjects)) []
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
     the engine-observer guard) can stop it. *)
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
  let action chosen seed full negative inject_livelock jobs grain ckpt resume
      cell_wall retries trace_out metrics_out =
   guarded @@ fun () ->
    Resil.install_interrupt_handlers ();
    let chosen =
      if chosen = [] then subjects
      else List.filter (fun (n, _) -> List.mem n chosen) subjects
    in
    let retry = retry_of_attempts retries in
    let cell_wall =
      match (cell_wall, inject_livelock) with None, true -> Some 2.0 | v, _ -> v
    in
    let ckpt_for name =
      Option.map (fun base -> Printf.sprintf "%s.%s.ckpt.jsonl" base name) ckpt
    in
    let rows = ref [] and all_ok = ref true in
    let failures = ref [] in
    let total_plans = ref 0 and total_passed = ref 0 in
    let total_blocked = ref 0 and worst_steps = ref 0 in
    let total_cov = ref (Resil.full_coverage 0) in
    List.iter
      (fun (name, make_subject) ->
        let subject = make_subject ?seed:(Some seed) () in
        let plans = Suite.campaign ~quick:(not full) ~seed subject in
        let report =
          Certify.certify ~jobs ?grain ~retry ?cell_wall_s:cell_wall
            ?checkpoint:(ckpt_for name) ~resume subject plans
        in
        total_cov := Resil.coverage_union !total_cov report.Certify.coverage;
        total_plans := !total_plans + report.Certify.plans;
        total_passed := !total_passed + report.Certify.passed;
        total_blocked := !total_blocked + report.Certify.blocked;
        worst_steps := max !worst_steps report.Certify.worst_own_steps;
        if not (Certify.certified report) then begin
          all_ok := false;
          failures := report :: !failures
        end;
        rows :=
          [
            report.Certify.subject;
            string_of_int report.Certify.plans;
            string_of_int report.Certify.passed;
            string_of_int report.Certify.blocked;
            string_of_int report.Certify.worst_own_steps;
            report.Certify.bound_desc;
            (if not (Resil.complete report.Certify.coverage) then
               Fmt.str "INCOMPLETE (%a)" Resil.pp_coverage report.Certify.coverage
             else if Certify.certified report then "CERTIFIED"
             else Printf.sprintf "FAILED (%d)" (List.length report.Certify.failures));
          ]
          :: !rows)
      chosen;
    if inject_livelock then begin
      let subject = livelock_subject () in
      let report =
        Certify.certify ~retry ?cell_wall_s:cell_wall subject [ Hwf_faults.Plan.none ]
      in
      total_cov := Resil.coverage_union !total_cov report.Certify.coverage;
      rows :=
        [
          report.Certify.subject;
          "1";
          string_of_int report.Certify.passed;
          string_of_int report.Certify.blocked;
          string_of_int report.Certify.worst_own_steps;
          report.Certify.bound_desc;
          (if Resil.complete report.Certify.coverage then
             "COMPLETED (watchdog control bug!)"
           else Fmt.str "TIMED OUT (expected; %a)" Resil.pp_coverage report.Certify.coverage);
        ]
        :: !rows
    end;
    if negative then begin
      let subject = Suite.negative () in
      let report = Certify.certify subject [ Suite.negative_plan ] in
      total_cov := Resil.coverage_union !total_cov report.Certify.coverage;
      let rejected = not (Certify.certified report) in
      if not rejected then all_ok := false;
      rows :=
        [
          report.Certify.subject;
          "1";
          string_of_int report.Certify.passed;
          string_of_int report.Certify.blocked;
          string_of_int report.Certify.worst_own_steps;
          report.Certify.bound_desc;
          (if rejected then "REJECTED (expected)" else "NOT REJECTED (certifier bug!)");
        ]
        :: !rows
    end;
    let header = [ "subject"; "plans"; "passed"; "blocked"; "worst"; "bound"; "verdict" ] in
    let rows = header :: List.rev !rows in
    let widths =
      List.init (List.length header) (fun i ->
          List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) 0 rows)
    in
    List.iteri
      (fun k r ->
        Fmt.pr "%s@."
          (String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths r));
        if k = 0 then
          Fmt.pr "%s@." (String.concat "  " (List.map (fun w -> String.make w '-') widths)))
      rows;
    List.iter (fun r -> Fmt.pr "@.%a@." Certify.pp_report r) (List.rev !failures);
    (* Exports: one deterministic judged run — the first chosen subject's
       first campaign plan — plus the campaign totals as harness rows. *)
    (if trace_out <> None || metrics_out <> None then
       match chosen with
       | [] -> ()
       | (_, make_subject) :: _ -> (
         let subject = make_subject ?seed:(Some seed) () in
         match Suite.campaign ~quick:(not full) ~seed subject with
         | [] -> ()
         | plan :: _ ->
           let _, r, _ = Certify.run_plan subject plan in
           Option.iter (fun path -> export_trace path r.Engine.trace) trace_out;
           Option.iter
             (fun path ->
               let m = Hwf_obs.Metrics.of_trace r.Engine.trace in
               let m =
                 Hwf_obs.Metrics.with_harness m
                   ([
                      ("faults.plans", !total_plans);
                      ("faults.passed", !total_passed);
                      ("faults.blocked", !total_blocked);
                      ("faults.worst_own_steps", !worst_steps);
                    ]
                   @ Resil.coverage_rows ~prefix:"faults" !total_cov)
               in
               export_metrics path m)
             metrics_out));
    (* Harness verdict first: a campaign with incomplete coverage is a
       partial result, so exit 2 regardless of what the evaluated cells
       say; only a complete campaign may exit 1 on failures. *)
    exit_if_incomplete !total_cov;
    if not !all_ok then exit Resil.exit_counterexample
  in
  let term =
    Term.(
      const action $ subject_arg $ seed_arg $ full_arg $ negative_arg $ livelock_arg
      $ jobs_arg $ grain_arg $ checkpoint_arg $ resume_arg $ cell_wall_arg
      $ retries_arg $ trace_out_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Certify wait-freedom of the core algorithms under fault-plan sweeps \
          (crash points, adversarial costs, chaos), printing a report table \
          (domain-parallel with --jobs).")
    term

(* ---- stats: the observability report ---- *)

let stats_cmd =
  let open Hwf_core in
  let impl_arg =
    let doc =
      "Subject: fig5 (hybrid C&S, Lemma 2 margin) or fig7 (multiprocessor \
       consensus, Lemma 2/3 margins)."
    in
    Arg.(
      value
      & opt (enum [ ("fig5", `Fig5); ("fig7", `Fig7) ]) `Fig5
      & info [ "i"; "impl" ] ~docv:"IMPL" ~doc)
  in
  let ops_arg =
    Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N" ~doc:"Operations per process (fig5).")
  in
  let max_runs_arg =
    let doc = "Schedule budget for the harness-statistics exploration." in
    Arg.(value & opt int 2_000 & info [ "max-runs" ] ~docv:"N" ~doc)
  in
  let action impl cnum quantum layout policy seed ops max_runs jobs grain no_dpor
      trace_out metrics_out =
    let config = Layout.to_config ~quantum layout in
    let mpp = Config.max_per_processor config in
    (* One measured run, metrics collected live through the observer
       hook, with the algorithm's access-failure tap reported against
       the paper's envelopes (docs/OBSERVABILITY.md maps the symbols). *)
    let collector = Hwf_obs.Metrics.collector config in
    let observer = Hwf_obs.Metrics.feed collector in
    let metrics, trace, scenario =
      match impl with
      | `Fig5 ->
        let n = List.length layout in
        let script = Scenarios.random_script ~seed ~n ~ops_per:ops in
        let sum =
          Scenarios.run_cas ~step_limit:8_000_000 ~observer ~quantum ~layout ~script
            ~policy:(make_policy policy seed) ()
        in
        let st = sum.Scenarios.cas_stats in
        Fmt.pr "fig5 run: finished=%b linearizable=%b well-formed=%b@."
          sum.Scenarios.cas_finished sum.Scenarios.linearizable
          sum.Scenarios.cas_well_formed;
        let m = Hwf_obs.Metrics.finish collector in
        let m =
          Hwf_obs.Metrics.with_bounds m
            [
              {
                Hwf_obs.Metrics.name = "AF_diff/op (Lemma 2, <=M)";
                measured = st.Hybrid_cas.worst_af_diff;
                bound = Some (Bounds.af_diff_bound ~m:mpp);
              };
              {
                Hwf_obs.Metrics.name = "AF_same/op (worst)";
                measured = st.Hybrid_cas.worst_af_same;
                bound = None;
              };
            ]
        in
        let m =
          Hwf_obs.Metrics.with_harness m
            [
              ("cas.ops", st.Hybrid_cas.ops);
              ("cas.appends", st.Hybrid_cas.appends);
              ("cas.af_diff_total", st.Hybrid_cas.af_diff);
              ("cas.af_same_total", st.Hybrid_cas.af_same);
              ("cas.scan_failures", st.Hybrid_cas.scan_failures);
            ]
        in
        ( m,
          sum.Scenarios.cas_trace,
          Scenarios.hybrid_cas ~name:"stats" ~quantum ~layout ~script )
      | `Fig7 ->
        let sum =
          Scenarios.run_multi ~step_limit:8_000_000 ~observer ~quantum
            ~consensus_number:cnum ~layout ~policy:(make_policy policy seed) ()
        in
        let p = config.Config.processors in
        let k = min cnum (2 * p) - p in
        Fmt.pr "fig7 run: finished=%b agreed=%b valid=%b well-formed=%b@."
          sum.Scenarios.finished sum.Scenarios.agreed sum.Scenarios.valid
          sum.Scenarios.well_formed;
        let m = Hwf_obs.Metrics.finish collector in
        let m =
          Hwf_obs.Metrics.with_bounds m
            [
              {
                Hwf_obs.Metrics.name = "AF_diff sites (Lemma 2)";
                measured = List.length sum.Scenarios.af_diff;
                bound = Some (Bounds.af_diff_bound ~m:mpp);
              };
              {
                Hwf_obs.Metrics.name = "AF_same sites (Lemma 3)";
                measured = List.length sum.Scenarios.af_same;
                bound =
                  Some (Bounds.af_same_bound ~m:mpp ~p ~k ~l:sum.Scenarios.levels);
              };
            ]
        in
        let m =
          Hwf_obs.Metrics.with_harness m
            [
              ("mc.af_same_events", sum.Scenarios.af_same_events);
              ("mc.af_diff_events", sum.Scenarios.af_diff_events);
              ("mc.exhausted", sum.Scenarios.exhausted);
              ("mc.levels", sum.Scenarios.levels);
            ]
        in
        (m, sum.Scenarios.trace, (scenario_of `Fig7 cnum quantum layout).Scenarios.scenario)
    in
    Fmt.pr "@.%a@." Hwf_obs.Metrics.pp metrics;
    (* Harness statistics: a bounded exploration of the same scenario
       with the search-layer counters on. Runs/sec and the pool picture
       depend on wall clock and domain racing — display-only, never
       exported. *)
    let estats = Explore.make_stats ~jobs scenario in
    let t0 = Unix.gettimeofday () in
    let o =
      Explore.explore ~max_runs ~step_limit:2_000_000 ~jobs ?grain
        ~dpor:(not no_dpor) ~stats:estats scenario
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
    Fmt.pr "source sets: %d blocked prefixes discarded@."
      (Explore.stats_source_prunes estats);
    let races = Hwf_obs.Races.of_trace trace in
    Fmt.pr "races: %d on %d variable(s)%s@."
      (Hwf_obs.Races.count races)
      (List.length races.Hwf_obs.Races.racy_vars)
      (if Hwf_obs.Races.racy races then
         Fmt.str " (%a)" Fmt.(list ~sep:comma string) races.Hwf_obs.Races.racy_vars
       else "");
    Fmt.pr "clock taint: %s (%d stamp reads, %d clock reads)@."
      (if Trace.now_reads trace = 0 then "none" else "tainted")
      (Trace.stamp_reads trace) (Trace.now_reads trace);
    let pool = Explore.stats_pool estats in
    Fmt.pr "pool: %d claims (%d stolen), %d cells evaluated, %d skipped@."
      (Hwf_par.Pool.stats_claims pool)
      (Hwf_par.Pool.stats_steals pool)
      (Hwf_par.Pool.stats_evaluated pool)
      (Hwf_par.Pool.stats_skipped pool);
    Array.iteri
      (fun w c -> if c > 0 then Fmt.pr "  domain %d: %d cells@." w c)
      (Hwf_par.Pool.stats_per_worker pool);
    Option.iter (fun path -> export_trace path trace) trace_out;
    Option.iter
      (fun path ->
        let m =
          Hwf_obs.Metrics.with_harness metrics
            [
              ("explore.runs", o.Explore.runs);
              ("explore.exhaustive", if o.Explore.exhaustive then 1 else 0);
            ]
        in
        export_metrics path m)
      metrics_out
  in
  let term =
    Term.(
      const action $ impl_arg $ cnum_arg $ quantum_arg $ layout_arg $ policy_arg
      $ seed_arg $ ops_arg $ max_runs_arg $ jobs_arg $ grain_arg $ no_dpor_arg
      $ trace_out_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a scenario with live metrics collection and print the observability \
          report: per-process scheduling metrics, measured access failures vs the \
          Lemma 2/3 bounds (with margins), and search-harness counters.")
    term

(* ---- trace: Fig. 1/2 demo ---- *)

let trace_cmd =
  let action quantum layout policy seed =
    let config = Layout.to_config ~quantum layout in
    let n = List.length layout in
    let x = Shared.make "obj" 0 in
    let bodies =
      Array.init n (fun _ () ->
          Eff.invocation "access" (fun () ->
              let v = Shared.read x in
              Eff.local "compute";
              Shared.write x (v + 1)))
    in
    let r = Engine.run ~config ~policy:(make_policy policy seed) bodies in
    Fmt.pr "%s@." (Render.lanes r.trace);
    Fmt.pr "well-formed: %b@." (Wellformed.is_well_formed r.trace)
  in
  let term = Term.(const action $ quantum_arg $ layout_arg $ policy_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Render the interleaving of simple object accesses (Figs. 1-2).")
    term

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
  let action subjects budget report corpus =
    if corpus then begin
      let misses =
        List.filter_map
          (fun (c : Hwf_lint_corpus.Corpus.case) ->
            let o, fired = Hwf_lint_corpus.Corpus.fires ~budget c in
            Fmt.pr "%-24s %-28s %s@." o.Lint.spec.Lint.name c.Hwf_lint_corpus.Corpus.expected_rule
              (if fired then "rejected (ok)" else "NOT REJECTED");
            if fired then None else Some o.Lint.spec.Lint.name)
          (Hwf_lint_corpus.Corpus.all ())
      in
      match misses with
      | [] ->
        Fmt.pr "corpus: all %d known-bad cases rejected@."
          (List.length (Hwf_lint_corpus.Corpus.all ()))
      | ms ->
        Fmt.epr "corpus: %d case(s) not rejected: %a@." (List.length ms)
          Fmt.(list ~sep:comma string)
          ms;
        exit 1
    end
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
      if errors = [] then
        Fmt.pr "lint: %d subject(s) clean@." (List.length outcomes)
      else begin
        Fmt.epr "lint: %d error(s)@." (List.length errors);
        exit 1
      end
    end
  in
  let term = Term.(const action $ subjects_arg $ budget_arg $ report_arg $ corpus_arg) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Model-conformance linter: replay each algorithm under a schedule \
          battery, reconstruct its statement-level CFG, and check atomicity, \
          quantum shape (derived constant c vs. the theorem preconditions), \
          wait-freedom loop bounds and priority-change legality. Exit 1 on \
          any error finding.")
    term

let () =
  let doc =
    "Wait-free synchronization under hybrid priority/quantum scheduling \
     (Anderson & Moir, PODC 1999) — simulator CLI."
  in
  let info = Cmd.info "hybridsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; explore_cmd; replay_cmd; analyze_cmd; bivalence_cmd; cas_cmd;
            bounds_cmd; sweep_cmd; faults_cmd; stats_cmd; trace_cmd; lint_cmd;
          ]))
