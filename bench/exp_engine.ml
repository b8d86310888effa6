(* E19 — engine scheduling throughput.

   Every theorem reproduction and every adversary campaign funnels its
   work through Engine.run, so the statements-per-second of one engine
   is the repo-wide cost unit. This experiment pins that number down
   across the dimensions that stress the scheduler's per-decision work:

     N  processes            2, 8, 32, 128, 1024
     P  processors           1, 4 (cells with P > N are skipped)
     observer                off / full Hwf_obs.Metrics collector
                             (via the allocation-free Metrics.sink)
     batched                 yes / no: the seeded random policy as is
                             (burst-safe, so forced decisions run as
                             quantum bursts) or declared not burst-safe
                             (every decision takes the unbatched path:
                             cached schedulable list, policy call)

   Each cell runs the same two-band workload (processes round-robin
   over the processors, alternating between two priority levels, each
   performing 8-statement invocations until a shared statement target
   is met) under a seeded random policy, and reports wall-clock
   statements/sec. The policy draws nothing on a forced decision, so a
   batched cell and its unbatched twin run the same schedule. Results
   go to stdout and to BENCH_engine.json ({schema, host, target,
   cells[]}) so the perf trajectory of the scheduling loop is recorded
   per run; EXPERIMENTS.md (E19) keeps the pre/post numbers. *)

open Hwf_sim
module Json = Hwf_obs.Json
open Hwf_workload

type cell = {
  n : int;
  processors : int;
  observer : bool;
  batched : bool;
  statements : int;
  seconds : float;
}

(* The observer-on headline cell must keep this share of the
   observer-off cell's throughput whenever the throughput floor is
   gated. *)
let min_observer_ratio = 0.7

let stmts_per_sec c =
  if c.seconds > 0. then float_of_int c.statements /. c.seconds else 0.

(* Two priority bands, processors filled round-robin: exercises both the
   Axiom 1 ready-level comparisons and the Axiom 2 guard checks. *)
let layout ~n ~processors =
  List.init n (fun i -> (i mod processors, 1 + (i / processors mod 2)))

let workload ~n ~processors ~target =
  let config = Layout.to_config ~quantum:6 (layout ~n ~processors) in
  let inv_len = 8 in
  let invs = max 1 (target / n / inv_len) in
  let bodies () =
    Array.init n (fun _ () ->
        for _ = 1 to invs do
          Eff.invocation "w" (fun () ->
              for _ = 1 to inv_len do
                Eff.local "s"
              done)
        done)
  in
  (config, bodies)

(* The same seeded random policy, batched (burst-safe, as declared by
   [Policy.random]) or not. *)
let policy ~batched =
  let random = Policy.random ~seed:7 in
  if batched then random
  else Policy.of_factory "random(7), not burst-safe" (fun () -> Policy.prepare random)

let measure ~reps ~observer ~batched ~n ~processors ~target =
  let config, bodies = workload ~n ~processors ~target in
  let policy = policy ~batched in
  (* Best-of-[reps] wall clock: the cell reports the engine's
     throughput, not the container's scheduling noise, so take the
     fastest trial (identical deterministic work each time). *)
  let best = ref None in
  for _ = 1 to reps do
    (* The observer cells feed the full metrics collector through the
       allocation-free sink path: the statement callback takes fields
       instead of a Trace.Stmt record, so the cell measures collection
       cost, not event-boxing cost. A fresh collector per trial — the
       shadow state must start from the run's initial priorities. *)
    let sink =
      if observer then Some (Hwf_obs.Metrics.sink (Hwf_obs.Metrics.collector config))
      else None
    in
    (* Collect before the timed region so a trial measures the engine,
       not the previous trial's floating garbage. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r =
      Engine.run ~step_limit:100_000_000 ?sink ~config ~policy (bodies ())
    in
    let seconds = Unix.gettimeofday () -. t0 in
    assert (Array.for_all Fun.id r.Engine.finished);
    let statements = Trace.statements r.Engine.trace in
    match !best with
    | Some (_, s) when s <= seconds -> ()
    | _ -> best := Some (statements, seconds)
  done;
  let statements, seconds = Option.get !best in
  { n; processors; observer; batched; statements; seconds }

(* --self-check: run the same layout through the engine, batched and
   unbatched, and through the naive reference interpreter
   (test/reference) and require equal results — trace bytes, stop
   reason, and the finished, own_steps and halted vectors. This is the
   differential gate behind the hot path: any divergence is an engine
   bug, not a tolerable perf artifact. *)
let differential ~n ~processors ~target =
  let config, bodies = workload ~n ~processors ~target in
  let slow =
    Hwf_reference.Reference.outcome (fun () ->
        Hwf_reference.Reference.run ~step_limit:100_000_000 ~config
          ~policy:(policy ~batched:true) (bodies ()))
  in
  List.iter
    (fun batched ->
      let fast =
        Hwf_reference.Reference.outcome (fun () ->
            Engine.run ~step_limit:100_000_000 ~config ~policy:(policy ~batched) (bodies ()))
      in
      match Hwf_reference.Reference.diff fast slow with
      | None -> ()
      | Some d ->
        failwith
          (Printf.sprintf
             "E19 --self-check: engine (%s) diverges from the reference at N=%d P=%d: %s"
             (if batched then "batched" else "unbatched")
             n processors d))
    [ true; false ]

let json_of_cells ~quick ~target ~truncated cells =
  Json.pretty
    (Json.Obj
       [
         ("schema", Json.Str Json.Schema.bench_engine.tag);
         ("host", Jobs.host_json ~quick);
         ("target_statements", Json.Int target);
         ("truncated", Json.Bool truncated);
         ( "cells",
           Json.List
             (List.map
                (fun c ->
                  Json.Obj
                    [
                      ("n", Json.Int c.n);
                      ("processors", Json.Int c.processors);
                      ("observer", Json.Bool c.observer);
                      ("batched", Json.Bool c.batched);
                      ("statements", Json.Int c.statements);
                      ("seconds", Json.fixed 6 c.seconds);
                      ("stmts_per_sec", Json.fixed 1 (stmts_per_sec c));
                    ])
                cells) );
       ])

let run ~quick =
  Tbl.section "E19: engine scheduling throughput";
  let target = if quick then 24_000 else 120_000 in
  (* Graceful degradation: on SIGINT/SIGTERM the remaining cells are
     dropped at the next cell boundary and the export is marked
     truncated, instead of finishing a multi-second sweep the user has
     already asked to stop (docs/ROBUSTNESS.md). *)
  let params =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun processors ->
            if processors > n then []
            else
              List.concat_map
                (fun observer ->
                  List.map (fun batched -> (n, processors, observer, batched)) [ true; false ])
                [ false; true ])
          [ 1; 4 ])
      [ 2; 8; 32; 128; 1024 ]
  in
  let reps = if quick then 1 else 5 in
  let cells =
    List.filter_map
      (fun (n, processors, observer, batched) ->
        if Hwf_resil.Resil.interrupted () then None
        else Some (measure ~reps ~observer ~batched ~n ~processors ~target))
      params
  in
  let truncated = List.length cells < List.length params in
  Tbl.print
    ~title:
      (Printf.sprintf "statements/sec, ~%d statements per cell, best of %d (seed 7%s)"
         target reps
         (if quick then ", quick" else ""))
    ~header:[ "N"; "P"; "observer"; "batched"; "statements"; "seconds"; "stmts/sec" ]
    (List.map
       (fun c ->
         [
           string_of_int c.n;
           string_of_int c.processors;
           (if c.observer then "metrics" else "off");
           (if c.batched then "yes" else "no");
           string_of_int c.statements;
           Printf.sprintf "%.3f" c.seconds;
           Printf.sprintf "%.0f" (stmts_per_sec c);
         ])
       cells);
  let path = "BENCH_engine.json" in
  let oc = open_out path in
  output_string oc (json_of_cells ~quick ~target ~truncated cells);
  close_out oc;
  Tbl.note
    "wrote %s%s; the N=128 rows are the scheduling-loop stress cells the\n\
     incremental-structure rewrite is measured by (EXPERIMENTS.md, E19)."
    path
    (if truncated then " (TRUNCATED: interrupted mid-sweep)" else "");
  if !Jobs.self_check && not truncated then begin
    List.iter
      (fun n ->
        List.iter
          (fun processors ->
            if processors <= n && not (Hwf_resil.Resil.interrupted ()) then
              differential ~n ~processors ~target)
          [ 1; 4 ])
      [ 2; 8; 32; 128; 1024 ];
    Tbl.note
      "self-check: engine, batched and unbatched, byte-identical to the reference \
       interpreter on every layout"
  end;
  (* Throughput regression gates (CI): the headline cell is the one the
     burst batching targets — N=128, single processor, batched — with
     the observer off against the floor, and with the observer on
     against [min_observer_ratio] of it. *)
  match !Jobs.min_stmts_per_sec with
  | Some floor when not truncated -> (
    let headline observer =
      List.find_opt
        (fun c -> c.n = 128 && c.processors = 1 && c.observer = observer && c.batched)
        cells
    in
    match (headline false, headline true) with
    | Some off, Some on ->
      let off = stmts_per_sec off and on = stmts_per_sec on in
      if off < floor then
        failwith
          (Printf.sprintf
             "E19: headline cell (N=128, P=1, observer off) ran at %.0f stmts/s, below \
              the --min-stmts-per-sec floor %.0f"
             off floor);
      if on < min_observer_ratio *. off then
        failwith
          (Printf.sprintf
             "E19: headline cell with the observer on ran at %.0f stmts/s, below %.1f x \
              the %.0f of the observer-off cell"
             on min_observer_ratio off);
      Tbl.note
        "headline cell %.0f stmts/s clears the --min-stmts-per-sec floor %.0f; with the \
         observer on %.0f (%.2f x, floor %.1f x)"
        off floor on (on /. off) min_observer_ratio
    | _ -> ())
  | _ -> ()
