(* Benchmark and experiment harness: one entry per paper table/figure
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
   recorded results). Wall-clock costs of whole campaigns are measured
   by perfbench/.

   Usage:
     dune exec bench/main.exe                 -- all experiments, quick
     dune exec bench/main.exe -- --full       -- larger trial counts
     dune exec bench/main.exe -- table1 thm3  -- selected experiments
     dune exec bench/main.exe -- --csv ...    -- tables as CSV blocks
     dune exec bench/main.exe -- faults --checkpoint B [--resume]
                                              -- E16 cell journaling
     dune exec bench/main.exe -- par --jobs 4 --self-check
                  [--min-speedup S]           -- E17 with the determinism
                                                 re-check + speedup gate
     dune exec bench/main.exe -- engine --self-check
                  [--min-stmts-per-sec F]     -- E19 with the engine-vs-
                                                 reference differential and
                                                 the throughput floor *)

let experiments : (string * string * (quick:bool -> unit)) list =
  [
    ("table1", "E1: Table 1 universality thresholds", Exp_table1.run);
    ("figs12", "E2: Figs 1-2 interleaving diagrams", Exp_figs12.run);
    ("thm1", "E3: Theorem 1 (Fig 3 uniprocessor consensus)", Exp_thm1.run);
    ("thm2", "E4: Theorem 2 (Fig 5 hybrid C&S, O(V))", Exp_thm2.run);
    ("thm4", "E5: Theorem 4 (Fig 7/8 multiprocessor consensus)", Exp_thm4.run);
    ("thm3", "E6: Theorem 3 lower bound (Figs 6/10)", Exp_thm3.run);
    ("lemma3", "E7: Lemmas 2/3 access-failure accounting", Exp_lemma3.run);
    ("fair", "E8: Fig 9 fair scheduling", Exp_fair.run);
    ("complexity", "E9: polynomial vs exponential baseline", Exp_complexity.run);
    ("universal", "E10: universal construction objects", Exp_universal.run);
    ("axiom2", "E11: necessity of Axiom 2", Exp_axiom2.run);
    ("modes", "E12: pure-priority / pure-quantum modes", Exp_modes.run);
    ("dynamic", "E13: dynamic priorities and renaming (Sec 5)", Exp_dynamic.run);
    ("time", "E14: the time model (Tmax/Tmin of Table 1)", Exp_time.run);
    ("crash", "E15: halting failures / wait-freedom", Exp_crash.run);
    ("faults", "E16: fault-injection campaigns / wait-freedom certifier", Exp_faults.run);
    ("par", "E17: domain-parallel speedup campaign (BENCH_par.json)", Exp_par.run);
    ("obs", "E18: structured-export demo (canonical fig3 run)", Exp_obs.run);
    ("engine", "E19: engine scheduling throughput (BENCH_engine.json)", Exp_engine.run);
    ("sched", "E20: randomized-scheduler bug-finding power (BENCH_sched.json)", Exp_sched.run);
  ]

(* Bad input is a harness failure (exit 2, docs/ROBUSTNESS.md): nothing
   runs, rather than a gate silently switched off. *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench/main.exe: " ^ m);
      exit Hwf_resil.Resil.exit_harness)
    fmt

(* Pull "--key V" out of the argument list (the remaining args keep
   their simple flag/experiment-name shape); [parse] must accept V. *)
let rec extract_opt parse key = function
  | [] -> ([], None)
  | [ k ] when k = key -> usage_error "%s needs a value" key
  | k :: v :: rest when k = key -> (
    let args, _ = extract_opt parse key rest in
    match parse v with
    | Some x -> (args, Some x)
    | None -> usage_error "invalid value %S for %s" v key)
  | a :: rest ->
    let args, v = extract_opt parse key rest in
    (a :: args, v)

let positive_int s =
  Option.bind (int_of_string_opt s) (fun n -> if n >= 1 then Some n else None)

let non_negative_float s =
  Option.bind (float_of_string_opt s) (fun x ->
      if Float.is_finite x && x >= 0. then Some x else None)

let flags = [ "--full"; "--csv"; "--resume"; "--self-check" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args, jobs = extract_opt positive_int "--jobs" args in
  let args, trace_out = extract_opt Option.some "--trace-out" args in
  let args, metrics_out = extract_opt Option.some "--metrics-out" args in
  let args, checkpoint = extract_opt Option.some "--checkpoint" args in
  let args, min_speedup = extract_opt non_negative_float "--min-speedup" args in
  let args, min_stmts_per_sec = extract_opt non_negative_float "--min-stmts-per-sec" args in
  Jobs.n := Option.value ~default:1 jobs;
  Jobs.min_speedup := min_speedup;
  Jobs.min_stmts_per_sec := min_stmts_per_sec;
  Jobs.checkpoint := checkpoint;
  let names = List.map (fun (name, _, _) -> name) experiments in
  List.iter
    (fun a ->
      if not (List.mem a flags || List.mem a names) then
        usage_error "unknown experiment or option %S" a)
    args;
  let selected = List.filter (fun a -> List.mem a names) args in
  Jobs.resume := List.mem "--resume" args;
  Jobs.self_check := List.mem "--self-check" args;
  let full = List.mem "--full" args in
  Tbl.csv_mode := List.mem "--csv" args;
  let quick = not full in
  let want name = selected = [] || List.mem name selected in
  (* SIGINT/SIGTERM stop the harness at the next cell boundary: the
     running experiment flushes a truncated partial result (E16's
     checkpoints let --resume finish it later) and the process exits 2
     instead of dying mid-write (docs/ROBUSTNESS.md). *)
  Hwf_resil.Resil.install_interrupt_handlers ();
  let interrupted () = Hwf_resil.Resil.interrupted () in
  Printf.printf
    "hybridwf experiment harness (%s mode, jobs=%d)\nPaper: Anderson & Moir, PODC 1999\n"
    (if quick then "quick" else "full")
    !Jobs.n;
  List.iter
    (fun (name, _desc, run) ->
      if want name && not (interrupted ()) then run ~quick)
    experiments;
  Exp_obs.export ~trace_out ~metrics_out;
  if interrupted () then begin
    Printf.printf
      "\nInterrupted: remaining experiments skipped; partial results are\n\
       marked truncated (rerun with --checkpoint/--resume to finish E16).\n";
    exit Hwf_resil.Resil.exit_harness
  end;
  Printf.printf "\nAll selected experiments completed.\n"
