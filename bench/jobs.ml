(* Worker-domain count for the parallelizable experiments (E16's
   certifier cells, E17's speedup campaign), set by bench/main.ml's
   --jobs flag. 1 = fully sequential, the historical behaviour. *)
let n = ref 1

(* E17 knobs: --self-check re-runs every E17 cell at jobs=1 and verifies
   the determinism contract (doubling the campaign's cost, so opt-in);
   --min-speedup S (with --self-check) fails the harness when the
   overall E17 speedup lands below S — CI's regression gate. *)
let self_check = ref false
let min_speedup : float option ref = ref None

(* E19 knobs: --self-check (shared flag) re-runs every E19 layout
   through the naive reference interpreter (test/reference) and
   requires byte-identical traces and equal results; --min-stmts-per-sec
   F fails the harness when the headline E19 cell (N=128, P=1, observer
   off) lands below F, or the same cell with the observer on below
   [Exp_engine.min_observer_ratio] of it — CI's throughput regression
   gates for the engine hot path and the metrics sink. *)
let min_stmts_per_sec : float option ref = ref None

(* Resilience knobs for the campaign experiments (E16), set by
   bench/main.ml's --checkpoint/--resume flags: [checkpoint] is the base
   path for per-subject hwf-ckpt/2 journals, [resume] restores completed
   cells from them (see docs/ROBUSTNESS.md). *)
let checkpoint : string option ref = ref None
let resume = ref false

(* The "host" block of every BENCH_*.json that carries one: the machine
   and mode that wrote the file, so numbers compare across commits. *)
let host_json ~quick =
  Hwf_obs.Json.Obj
    [
      ("nproc", Hwf_obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Hwf_obs.Json.Str Sys.ocaml_version);
      ("mode", Hwf_obs.Json.Str (if quick then "quick" else "full"));
    ]
