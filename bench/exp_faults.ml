(* E16 — fault-injection campaigns and the wait-freedom certifier.

   For each core algorithm we sweep composable fault plans — an
   exhaustive single-victim crash-point sweep (every own-statement index
   up to the victim's solo run length), two-victim crash pairs,
   adversarial statement costs in the time model, and seeded chaos plans
   layering them — and certify three properties per run: every
   unblocked survivor finishes, nobody exceeds the theorem's own-step
   bound, and the surviving history stays correct (agreement /
   linearizability with crashed operations pending). The campaign is
   Suite.certify_all, the one `hybridsim faults` runs; this file keeps
   only its output.

   The last row is the negative control: the same certifier pointed at a
   hand-derived Fig. 3 schedule with the Axiom 2 quantum guarantee
   suspended. It must FAIL — the paper's Sec. 2 point is that the
   algorithms genuinely rely on Axiom 2, and a certifier that cannot see
   them fail without it proves nothing.

   Resilience (docs/ROBUSTNESS.md): with bench/main.ml's --checkpoint
   BASE each subject journals its completed cells to
   BASE.<subject>.ckpt.jsonl and --resume restores them, so a killed
   campaign finishes from where it stopped; an interrupted run (SIGINT/
   SIGTERM) stops at the next cell boundary and records a truncated
   partial result instead of vanishing. Results also go to
   BENCH_faults.json (schema hwf-bench-faults/1) — deterministic bytes
   for a completed campaign, so CI can diff a kill+resume run against a
   clean one. *)

open Hwf_faults
module Json = Hwf_obs.Json
module Resil = Hwf_resil.Resil

let seed = 41

(* BENCH_faults.json: the machine-readable record of the campaign.
   Deterministic — past the host block, every value is an int, bool or
   string derived from the (seeded) campaign, never from the wall clock
   — so two completed runs of the same campaign on one host produce
   identical bytes, including a
   kill+--resume run vs a clean one (the CI kill/resume smoke diffs
   exactly this file). A truncated run flips "truncated" and carries the
   partial coverage instead. *)
let json_of ~quick ~truncated (c : Suite.certification) =
  let coverage_fields c =
    [
      ("cells_total", Json.Int c.Resil.cells_total);
      ("cells_done", Json.Int c.Resil.cells_done);
      ("timeouts", Json.Int c.Resil.timeouts);
      ("errors", Json.Int c.Resil.errors);
      ("skipped", Json.Int c.Resil.skipped);
      ("retries", Json.Int c.Resil.retries);
      ("degraded", Json.Int c.Resil.degraded);
    ]
  in
  let neg = Option.get c.negative in
  Json.pretty
    (Json.Obj
       [
         ("schema", Json.Str Json.Schema.bench_faults.tag);
         ("host", Jobs.host_json ~quick);
         ("seed", Json.Int seed);
         ("quick", Json.Bool quick);
         ("truncated", Json.Bool truncated);
         ( "subjects",
           Json.List
             (List.map
                (fun (r : Suite.row) ->
                  Json.Obj
                    ([
                       ("name", Json.Str r.report.Certify.subject);
                       ("plans", Json.Int r.report.Certify.plans);
                       ("passed", Json.Int r.report.Certify.passed);
                       ("blocked", Json.Int r.report.Certify.blocked);
                       ("worst_own_steps", Json.Int r.report.Certify.worst_own_steps);
                       ("certified", Json.Bool r.ok);
                     ]
                    @ coverage_fields r.report.Certify.coverage))
                c.positives) );
         ("negative_rejected", Json.Bool neg.ok);
         ("negative_coverage", Json.Obj (coverage_fields neg.report.Certify.coverage));
       ])

let run ~quick =
  Tbl.section "E16: fault-injection campaigns / wait-freedom certifier";
  let c =
    Suite.certify_all ~quick ~seed ~negative:true ~jobs:!Jobs.n
      ?checkpoint:!Jobs.checkpoint ~resume:!Jobs.resume ()
  in
  let neg = Option.get c.negative in
  let truncated = not (Resil.complete c.coverage) in
  Tbl.print
    ~title:
      (Printf.sprintf
         "certification under exhaustive crash sweeps + chaos plans (seed %d%s)" seed
         (if quick then ", quick" else ""))
    ~header:[ "subject"; "plans"; "passed"; "blocked"; "worst own-steps"; "bound"; "verdict" ]
    (List.map Suite.columns (c.positives @ [ neg ]));
  Tbl.note
    "blocked = passing runs where an unfinished survivor was excused:\n\
     a parked victim of strictly higher priority stays ready and blocks\n\
     it forever (Axiom 1) - the scheduler starves it, not the algorithm.\n\
     The last row suspends Axiom 2 under a hand-derived schedule and\n\
     must be REJECTED: it is the control that proves the certifier can\n\
     see the algorithms fail when the quantum guarantee is withdrawn.";
  List.iter
    (fun (r : Suite.row) -> if not r.ok then Fmt.pr "@.%a@." Certify.pp_report r.report)
    c.positives;
  (match neg.report.Certify.failures with
  | f :: _ ->
    Tbl.note "negative-control counterexample (shrunk): plan [%s]; %s"
      (Plan.to_string f.Certify.plan)
      f.Certify.message
  | [] -> ());
  let path = "BENCH_faults.json" in
  let oc = open_out path in
  output_string oc (json_of ~quick ~truncated c);
  close_out oc;
  Tbl.note "wrote %s%s" path
    (if truncated then " (TRUNCATED: partial campaign, see coverage fields)"
     else "");
  if truncated then
    Fmt.pr "@.E16 incomplete: %a@." Resil.pp_coverage c.coverage
  else begin
    (* Only a completed campaign can be judged: a truncated one has an
       untrustworthy failure list (bench/main.ml exits 2 for it). *)
    if List.exists (fun (r : Suite.row) -> not r.ok) c.positives then
      failwith "E16: a positive campaign failed certification";
    if not neg.ok then failwith "E16: the negative control was not rejected"
  end
