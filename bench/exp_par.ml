(* E17 — the domain-parallel speedup campaign.

   The three hot paths that lib/par parallelizes — schedule exploration
   (Explore.explore subtree fan-out over the domain pool), fault-plan
   certification (Certify.certify cell distribution), and random volume
   testing — are each run at the campaign's worker count, recording
   wall-clock and work units per second per cell.

   With --self-check each cell is additionally re-run at --jobs 1 on
   identical inputs, the two outcomes are compared field by field (the
   determinism contract of docs/PARALLELISM.md), and the per-cell
   speedup is derived; a divergence fails the harness. Without it the
   benchmark measures the pool alone — the sequential baseline costs as
   much as the campaign itself, so it is opt-in. --min-speedup S (with
   --self-check) turns the overall speedup into a regression gate: CI
   runs E17 with --jobs 4 --self-check --min-speedup 1.0.

   A sleep-set cross-check rides along: two exhaustive two-processor
   suites are explored with and without pruning (--no-dpor's
   Explore ~dpor:false), asserting identical verdicts and recording the
   run-count reduction. Results go to stdout as tables and to
   BENCH_par.json (schema: docs/OBSERVABILITY.md); on a single-core
   container the speedup hovers around 1.0x, on >= 4 cores the
   certification sweeps are expected to clear 2x. *)

open Hwf_sim
module Json = Hwf_obs.Json
open Hwf_adversary
open Hwf_workload
open Hwf_faults

type cell = {
  name : string;
  units : int;  (* engine runs / plan cells completed *)
  par_s : float;
  seq_s : float option;  (* --self-check only *)
  identical : bool option;  (* --self-check only *)
}

type dpor_check = {
  dname : string;
  runs_full : int;
  runs_pruned : int;
  pruned_branches : int;
  verdict_equal : bool;
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let speedup c =
  match c.seq_s with
  | Some s when c.par_s > 0. -> Some (s /. c.par_s)
  | _ -> None

let outcomes_identical (o1 : Explore.outcome) (o2 : Explore.outcome) =
  o1.Explore.runs = o2.Explore.runs
  && o1.Explore.exhaustive = o2.Explore.exhaustive
  && (match (o1.Explore.counterexample, o2.Explore.counterexample) with
     | None, None -> true
     | Some c1, Some c2 ->
       c1.Explore.message = c2.Explore.message
       && c1.Explore.decisions = c2.Explore.decisions
     | _ -> false)
  && o1.Explore.coverage = o2.Explore.coverage

let explore_cell ~jobs ~self_check ~name scenario =
  let o2, par_s = wall (fun () -> Explore.explore ~jobs scenario) in
  let seq_s, identical =
    if not self_check then (None, None)
    else
      let o1, seq_s = wall (fun () -> Explore.explore ~jobs:1 scenario) in
      (Some seq_s, Some (outcomes_identical o1 o2))
  in
  { name; units = o2.Explore.runs; par_s; seq_s; identical }

let certify_cell ~jobs ~self_check ~quick ~seed ~name make_subject =
  let subject = make_subject ?seed:(Some seed) () in
  let plans = Suite.campaign ~quick ~seed subject in
  let r2, par_s = wall (fun () -> Certify.certify ~jobs subject plans) in
  let failure_key (f : Certify.failure) = (f.message, f.schedule, f.shrunk_from) in
  let seq_s, identical =
    if not self_check then (None, None)
    else
      let r1, seq_s = wall (fun () -> Certify.certify ~jobs:1 subject plans) in
      let same =
        r1.Certify.passed = r2.Certify.passed
        && r1.Certify.blocked = r2.Certify.blocked
        && r1.Certify.worst_own_steps = r2.Certify.worst_own_steps
        && List.map failure_key r1.Certify.failures
           = List.map failure_key r2.Certify.failures
        && r1.Certify.coverage = r2.Certify.coverage
      in
      (Some seq_s, Some same)
  in
  { name; units = List.length plans; par_s; seq_s; identical }

let random_cell ~jobs ~self_check ~name ~runs ~seed scenario =
  let o2, par_s =
    wall (fun () -> Explore.sample ~strategy:Randsched.Naive ~runs ~jobs ~seed scenario)
  in
  let seq_s, identical =
    if not self_check then (None, None)
    else
      let o1, seq_s = wall (fun () -> Explore.sample ~strategy:Randsched.Naive
          ~runs ~jobs:1 ~seed scenario) in
      ( Some seq_s,
        Some (o1.Explore.runs = o2.Explore.runs && o1.Explore.coverage = o2.Explore.coverage)
      )
  in
  { name; units = runs; par_s; seq_s; identical }

(* ---- the sleep-set cross-check suites ----

   Exhaustive two-processor scenarios built from the simulator
   primitives: one with disjoint footprints (pruning collapses the
   interleaving lattice; the clean verdict must survive) and one with a
   genuine lost-update race (the counterexample must survive byte for
   byte). Small enough to enumerate in full both ways on every bench
   run. *)

let two_cpu ~name mk =
  let config = Layout.to_config ~quantum:4 [ (0, 1); (1, 1) ] in
  let make () =
    let programs, finals = mk () in
    let check (r : Engine.result) =
      if not (Array.for_all Fun.id r.Engine.finished) then
        Error "not all processes finished"
      else finals ()
    in
    Explore.{ programs; check }
  in
  Explore.{ name; config; make }

let disjoint_suite =
  two_cpu ~name:"2cpu disjoint counters" (fun () ->
      let a = Shared.make "a" 0 and b = Shared.make "b" 0 in
      let bump v = Shared.write v (Shared.read v + 1) in
      let prog v () = Eff.invocation "bump" (fun () -> bump v; bump v; bump v) in
      let finals () =
        if Shared.peek a = 3 && Shared.peek b = 3 then Ok () else Error "bad finals"
      in
      ([| prog a; prog b |], finals))

let racy_suite =
  two_cpu ~name:"2cpu racy counter" (fun () ->
      let x = Shared.make "x" 0 in
      let incr () =
        let v = Shared.read x in
        Shared.write x (v + 1)
      in
      let prog () = Eff.invocation "incr" incr in
      let finals () =
        let v = Shared.peek x in
        if v = 2 then Ok () else Error (Fmt.str "lost update: x=%d" v)
      in
      ([| prog; prog |], finals))

let dpor_cell scenario =
  let stats = Explore.make_stats ~jobs:1 scenario in
  let full = Explore.explore ~dpor:false scenario in
  let pruned = Explore.explore ~stats scenario in
  let verdict_equal =
    full.Explore.exhaustive = pruned.Explore.exhaustive
    &&
    match (full.Explore.counterexample, pruned.Explore.counterexample) with
    | None, None -> true
    | Some c1, Some c2 ->
      c1.Explore.message = c2.Explore.message
      && c1.Explore.decisions = c2.Explore.decisions
    | _ -> false
  in
  {
    dname = scenario.Explore.name;
    runs_full = full.Explore.runs;
    runs_pruned = pruned.Explore.runs;
    pruned_branches = Explore.stats_pruned stats;
    verdict_equal;
  }

(* ---- output ---- *)

let json_of ~quick ~jobs ~self_check cells dpor =
  let total_par = List.fold_left (fun a c -> a +. c.par_s) 0. cells in
  let total_seq =
    List.fold_left
      (fun acc c -> match (acc, c.seq_s) with Some a, Some s -> Some (a +. s) | _ -> None)
      (Some 0.) cells
  in
  Json.pretty
    (Json.Obj
       [
         ("schema", Json.Str Json.Schema.bench_par.tag);
         ("host", Jobs.host_json ~quick);
         ("jobs", Json.Int jobs);
         ("recommended_domains", Json.Int (Hwf_par.Pool.default_jobs ()));
         ("self_check", Json.Bool self_check);
         ( "cells",
           Json.List
             (List.map
                (fun c ->
                  Json.Obj
                    [
                      ("name", Json.Str c.name);
                      ("units", Json.Int c.units);
                      ("par_seconds", Json.fixed 6 c.par_s);
                      ( "par_units_per_sec",
                        Json.fixed 1
                          (if c.par_s > 0. then float_of_int c.units /. c.par_s else 0.) );
                      ("seq_seconds", Json.option (Json.fixed 6) c.seq_s);
                      ("speedup", Json.option (Json.fixed 3) (speedup c));
                      ("identical", Json.option (fun b -> Json.Bool b) c.identical);
                    ])
                cells) );
         ( "dpor",
           Json.List
             (List.map
                (fun d ->
                  Json.Obj
                    [
                      ("suite", Json.Str d.dname);
                      ("runs_full", Json.Int d.runs_full);
                      ("runs_pruned", Json.Int d.runs_pruned);
                      ("pruned_branches", Json.Int d.pruned_branches);
                      ("verdict_equal", Json.Bool d.verdict_equal);
                    ])
                dpor) );
         ("total_par_seconds", Json.fixed 6 total_par);
         ("total_seq_seconds", Json.option (Json.fixed 6) total_seq);
         ( "overall_speedup",
           Json.option
             (fun s -> Json.fixed 3 (if total_par > 0. then s /. total_par else 1.))
             total_seq );
       ])

let run ~quick =
  let jobs = !Jobs.n in
  let self_check = !Jobs.self_check in
  Tbl.section
    (Printf.sprintf "E17: domain-parallel speedup campaign (jobs=%d%s)" jobs
       (if self_check then ", self-check" else ""));
  let seed = 41 in
  let fig3_scn pris quantum =
    (Scenarios.consensus ~name:"e17.f3" ~impl:Scenarios.Fig3 ~quantum
       ~layout:(List.map (fun p -> (0, p)) pris))
      .Scenarios.scenario
  in
  let cells =
    [
      explore_cell ~jobs ~self_check ~name:"explore fig3 Q=8 3p"
        (fig3_scn [ 1; 1; 1 ] 8);
      random_cell ~jobs ~self_check ~name:"random fig3 Q=8 3p"
        ~runs:(if quick then 400 else 2_000)
        ~seed (fig3_scn [ 1; 1; 1 ] 8);
      certify_cell ~jobs ~self_check ~quick ~seed
        ~name:"certify fig3 (E16 sweep)" Suite.fig3;
      certify_cell ~jobs ~self_check ~quick ~seed
        ~name:"certify fig5 (E16 sweep)" Suite.fig5;
      certify_cell ~jobs ~self_check ~quick ~seed
        ~name:"certify universal (E16 sweep)" Suite.universal;
    ]
  in
  let dpor = [ dpor_cell disjoint_suite; dpor_cell racy_suite ] in
  let dash = function None -> "-" | Some s -> s in
  Tbl.print
    ~title:
      (Printf.sprintf "jobs=%d on identical inputs (seed %d%s)" jobs seed
         (if quick then ", quick" else ""))
    ~header:[ "cell"; "units"; "par s"; "units/s"; "seq s"; "speedup"; "identical" ]
    (List.map
       (fun c ->
         [
           c.name;
           string_of_int c.units;
           Printf.sprintf "%.3f" c.par_s;
           Printf.sprintf "%.0f"
             (if c.par_s > 0. then float_of_int c.units /. c.par_s else 0.);
           dash (Option.map (Printf.sprintf "%.3f") c.seq_s);
           dash (Option.map (Printf.sprintf "%.2fx") (speedup c));
           dash (Option.map string_of_bool c.identical);
         ])
       cells);
  Tbl.print ~title:"sleep-set pruning cross-check (dpor vs --no-dpor)"
    ~header:[ "suite"; "runs full"; "runs pruned"; "branches cut"; "verdict equal" ]
    (List.map
       (fun d ->
         [
           d.dname;
           string_of_int d.runs_full;
           string_of_int d.runs_pruned;
           string_of_int d.pruned_branches;
           string_of_bool d.verdict_equal;
         ])
       dpor);
  let path = "BENCH_par.json" in
  let oc = open_out path in
  output_string oc (json_of ~quick ~jobs ~self_check cells dpor);
  close_out oc;
  Tbl.note
    "wrote %s; speedup scales with cores (expect >= 2x on >= 4 cores for\n\
     the certification sweeps; ~1x is normal on a single-core container).\n\
     Pass --self-check to re-run every cell at jobs=1 and verify the\n\
     determinism contract of docs/PARALLELISM.md; --min-speedup S gates on\n\
     the overall speedup."
    path;
  if List.exists (fun d -> not d.verdict_equal) dpor then
    failwith "E17: sleep-set pruning changed a verdict";
  if self_check then begin
    if List.exists (fun c -> c.identical = Some false) cells then
      failwith "E17: a parallel outcome diverged from the sequential one";
    match !Jobs.min_speedup with
    | None -> ()
    | Some m ->
      let total_seq =
        List.fold_left (fun a c -> a +. Option.value ~default:0. c.seq_s) 0. cells
      in
      let total_par = List.fold_left (fun a c -> a +. c.par_s) 0. cells in
      let overall = if total_par > 0. then total_seq /. total_par else 1. in
      if overall < m then
        failwith
          (Printf.sprintf "E17: overall speedup %.3f below the --min-speedup gate %.2f"
             overall m)
  end
