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
     dune exec bench/main.exe -- par --jobs 4 --self-check [--grain G]
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
    ("obs", "E18: observability overhead (trace sink on vs off)", Exp_obs.run);
    ("engine", "E19: engine scheduling throughput (BENCH_engine.json)", Exp_engine.run);
    ("sched", "E20: randomized-scheduler bug-finding power (BENCH_sched.json)", Exp_sched.run);
  ]

(* Pull "--jobs N" out of the argument list (the remaining args keep
   their simple flag/experiment-name shape). *)
let rec extract_jobs = function
  | [] -> ([], None)
  | "--jobs" :: n :: rest ->
    let args, _ = extract_jobs rest in
    (args, int_of_string_opt n)
  | a :: rest ->
    let args, j = extract_jobs rest in
    (a :: args, j)

(* Same shape for the structured-export sinks ("--trace-out F",
   "--metrics-out F"); see Exp_obs.export. *)
let rec extract_opt key = function
  | [] -> ([], None)
  | k :: v :: rest when k = key ->
    let args, _ = extract_opt key rest in
    (args, Some v)
  | a :: rest ->
    let args, v = extract_opt key rest in
    (a :: args, v)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args, jobs = extract_jobs args in
  let args, trace_out = extract_opt "--trace-out" args in
  let args, metrics_out = extract_opt "--metrics-out" args in
  let args, checkpoint = extract_opt "--checkpoint" args in
  let args, grain = extract_opt "--grain" args in
  let args, min_speedup = extract_opt "--min-speedup" args in
  let args, min_stmts_per_sec = extract_opt "--min-stmts-per-sec" args in
  Jobs.n := (match jobs with Some j when j >= 1 -> j | _ -> 1);
  Jobs.checkpoint := checkpoint;
  Jobs.resume := List.mem "--resume" args;
  Jobs.grain :=
    (match Option.bind grain int_of_string_opt with
    | Some g when g >= 1 -> Some g
    | _ -> None);
  Jobs.self_check := List.mem "--self-check" args;
  Jobs.min_speedup := Option.bind min_speedup float_of_string_opt;
  Jobs.min_stmts_per_sec := Option.bind min_stmts_per_sec float_of_string_opt;
  let full = List.mem "--full" args in
  Tbl.csv_mode := List.mem "--csv" args;
  let quick = not full in
  let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
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
