(* E20 — randomized-scheduler bug-finding power (schedules-to-first-bug).

   Head-to-head of the four sampling strategies (naive uniform, PCT,
   POS, SURW — lib/adversary/randsched.ml, docs/SAMPLING.md) on two
   families of known-bad subjects:

   - every dynamically sampleable case of the lint corpus
     (test/lint_corpus, via [Corpus.scenarios]) — planted harness
     escapes, an unbounded spin loop, a misdeclared statement constant,
     and the genuinely schedule-dependent quantum-below consensus;
   - the E16 negative fault control: Fig. 3 under
     [Suite.negative_plan] (Axiom 2 suspended), routed through
     [Inject.run] with [Explore.sample]'s [?runner] hook. A second
     fault cell runs the same subject under [Plan.none] (Axiom 2
     enforced) as a clean control — no strategy may find anything, and
     the row records the rule-of-three lower bound instead.

   Each (case, strategy) cell reports the schedule index of the first
   bug with an exact 95% geometric CI ([Explore.stf_ci]), at one shared
   seed and budget (quick: 50 runs, full: 2000). Three gates fail the
   harness: every expected-bug corpus case must be found by at least
   one strategy; PCT/POS/SURW must each find every corpus bug naive
   finds at the same budget (the power-parity claim); and one found
   cell is re-run at jobs=1 vs jobs=2, whose outcomes must be
   identical (the determinism contract of docs/SAMPLING.md). Results
   go to stdout as a table and to BENCH_sched.json (schema
   hwf-bench-sched/2). *)

open Hwf_sim
module Json = Hwf_obs.Json
open Hwf_adversary
open Hwf_faults
module Corpus = Hwf_lint_corpus.Corpus

let seed = 1
let pct_depth = 4
let strategies = Randsched.[ Naive; Pct { depth = pct_depth }; Pos; Surw ]

type cell = {
  case : string;
  source : string;  (* "lint-corpus" | "fault-plan" *)
  expect_bug : bool;
  strategy : Randsched.strategy;
  step_limit : int;
  scenario : Explore.scenario;
  runner :
    (step_limit:int -> policy:Policy.t -> Explore.instance -> Engine.result)
    option;
}

type row = {
  cell : cell;
  budget : int;
  outcome : Explore.outcome;
  wall_s : float;
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The E16 negative control re-posed as an [Explore.scenario]: the
   subject's [check ~survivors] is closed over the finished-pid list
   (no crashes in either plan, so survivors = finished). *)
let fault_cells () =
  let neg = Suite.negative () in
  let scenario =
    {
      Explore.name = "fault:" ^ neg.Certify.name;
      config = neg.Certify.config;
      make =
        (fun () ->
          let inst = neg.Certify.make () in
          let check (r : Engine.result) =
            let survivors =
              List.filter
                (fun p -> r.Engine.finished.(p))
                (List.init (Array.length r.Engine.finished) Fun.id)
            in
            inst.Certify.check ~survivors r
          in
          { Explore.programs = inst.Certify.programs; check });
    }
  in
  let runner plan ~step_limit ~policy instance =
    Inject.run ~step_limit ~plan ~config:neg.Certify.config ~policy
      instance.Explore.programs
  in
  List.concat_map
    (fun strategy ->
      [
        {
          case = neg.Certify.name ^ "/axiom2-suspended";
          source = "fault-plan";
          expect_bug = true;
          strategy;
          step_limit = neg.Certify.step_limit;
          scenario;
          runner = Some (runner Suite.negative_plan);
        };
        {
          case = neg.Certify.name ^ "/no-faults";
          source = "fault-plan";
          expect_bug = false;
          strategy;
          step_limit = neg.Certify.step_limit;
          scenario;
          runner = Some (runner Plan.none);
        };
      ])
    strategies

let corpus_cells () =
  List.concat_map
    (fun ((c : Corpus.case), scenario) ->
      List.map
        (fun strategy ->
          {
            case = c.Corpus.spec.Hwf_lint.Lint.name;
            source = "lint-corpus";
            expect_bug = true;
            strategy;
            step_limit = c.Corpus.spec.Hwf_lint.Lint.step_limit;
            scenario;
            runner = None;
          })
        strategies)
    (Corpus.scenarios ())

let run_cell ~budget ~jobs (cell : cell) =
  Explore.sample ~runs:budget ~step_limit:cell.step_limit ~jobs
    ?runner:cell.runner ~strategy:cell.strategy ~seed cell.scenario

(* ---- gates ---- *)

let found (r : row) = r.outcome.Explore.counterexample <> None

let gate_coverage rows =
  let corpus = List.filter (fun r -> r.cell.source = "lint-corpus") rows in
  let cases =
    List.sort_uniq compare (List.map (fun r -> r.cell.case) corpus)
  in
  let missed =
    List.filter
      (fun case ->
        not
          (List.exists (fun r -> r.cell.case = case && found r) corpus))
      cases
  in
  if missed <> [] then
    failwith
      (Printf.sprintf "E20: corpus case(s) found by no strategy: %s"
         (String.concat ", " missed));
  List.length cases

(* The power-parity gate covers the corpus cases (the acceptance
   criterion); the fault-plan rows are informative — a strategy may
   legitimately trail naive there at small budgets. *)
let gate_parity rows =
  let naive_found =
    List.filter
      (fun r ->
        r.cell.source = "lint-corpus"
        && r.cell.strategy = Randsched.Naive
        && found r)
      rows
  in
  List.iter
    (fun (n : row) ->
      List.iter
        (fun s ->
          if s <> Randsched.Naive then
            let peer =
              List.find
                (fun r -> r.cell.case = n.cell.case && r.cell.strategy = s)
                rows
            in
            if not (found peer) then
              failwith
                (Printf.sprintf
                   "E20: naive finds %s at schedule %d but %s misses it at \
                    the same budget (%d)"
                   n.cell.case n.outcome.Explore.runs
                   (Fmt.str "%a" Randsched.pp s)
                   peer.budget))
        strategies)
    naive_found

let outcome_sig (o : Explore.outcome) =
  ( o.Explore.runs,
    Option.map
      (fun (c : Explore.counterexample) -> (c.Explore.message, c.Explore.decisions))
      o.Explore.counterexample )

let gate_determinism rows =
  match List.find_opt found rows with
  | None -> false
  | Some r ->
    let o1 = run_cell ~budget:r.budget ~jobs:1 r.cell in
    let o2 = run_cell ~budget:r.budget ~jobs:2 r.cell in
    if outcome_sig o1 <> outcome_sig o2 then
      failwith
        (Printf.sprintf
           "E20: sample on %s/%s diverges between --jobs 1 and --jobs 2"
           r.cell.case
           (Fmt.str "%a" Randsched.pp r.cell.strategy));
    true

(* ---- reporting ---- *)

let json_of ~quick ~jobs ~budget ~deterministic rows =
  let cell (r : row) =
    let lo, hi = Explore.stf_ci r.outcome in
    Json.Obj
      ([
         ("case", Json.Str r.cell.case);
         ("source", Json.Str r.cell.source);
         ("expect_bug", Json.Bool r.cell.expect_bug);
         ("strategy", Json.Str (Randsched.name r.cell.strategy));
         ( "depth",
           match r.cell.strategy with Randsched.Pct { depth } -> Json.Int depth | _ -> Json.Null );
         ("runs", Json.Int r.budget);
         ("found", Json.Bool (found r));
         ( "first_bug",
           Json.option
             (fun _ -> Json.Int r.outcome.Explore.runs)
             r.outcome.Explore.counterexample );
         ("stf_lo", Json.fixed 3 lo);
         ("stf_hi", Json.fixed 3 hi);
         ("wall_s", Json.fixed 3 r.wall_s);
       ]
      @
      match r.outcome.Explore.counterexample with
      | Some c -> [ ("message", Json.Str c.Explore.message) ]
      | None -> [])
  in
  Json.pretty
    (Json.Obj
       [
         ("schema", Json.Str Json.Schema.bench_sched.tag);
         ("seed", Json.Int seed);
         ("host", Jobs.host_json ~quick);
         ("jobs", Json.Int jobs);
         ("pct_depth", Json.Int pct_depth);
         ("runs_budget", Json.Int budget);
         ("determinism_recheck", Json.Bool deterministic);
         ("cells", Json.List (List.map cell rows));
       ])

let run ~quick =
  Tbl.section "E20: randomized-scheduler bug-finding power";
  let budget = if quick then 50 else 2_000 in
  let jobs = !Jobs.n in
  let cells = corpus_cells () @ fault_cells () in
  Tbl.note
    "seed %d, budget %d schedules/cell, pct depth %d, %d cells, jobs %d"
    seed budget pct_depth (List.length cells) jobs;
  let rows =
    List.map
      (fun cell ->
        let outcome, wall_s = wall (fun () -> run_cell ~budget ~jobs cell) in
        { cell; budget; outcome; wall_s })
      cells
  in
  Tbl.print ~title:"schedules to first bug (95% CI)"
    ~header:[ "case"; "source"; "strategy"; "first bug"; "stf 95% CI"; "wall s" ]
    (List.map
       (fun (r : row) ->
         let lo, hi = Explore.stf_ci r.outcome in
         [
           r.cell.case;
           r.cell.source;
           Fmt.str "%a" Randsched.pp r.cell.strategy;
           (match r.outcome.Explore.counterexample with
           | Some _ -> string_of_int r.outcome.Explore.runs
           | None -> Printf.sprintf "none/%d" r.budget);
           (if Float.is_finite hi then Printf.sprintf "[%.1f, %.1f]" lo hi
            else Printf.sprintf "[%.1f, inf)" lo);
           Printf.sprintf "%.2f" r.wall_s;
         ])
       rows);
  let clean_leak =
    List.filter (fun r -> (not r.cell.expect_bug) && found r) rows
  in
  (match clean_leak with
  | r :: _ ->
    failwith
      (Printf.sprintf "E20: clean control %s failed under %s: %s"
         r.cell.case
         (Fmt.str "%a" Randsched.pp r.cell.strategy)
         (match r.outcome.Explore.counterexample with
         | Some c -> c.Explore.message
         | None -> assert false))
  | [] -> ());
  let cases = gate_coverage rows in
  gate_parity rows;
  let deterministic = gate_determinism rows in
  Tbl.note
    "gates: %d corpus cases each found by >= 1 strategy; PCT/POS/SURW match \
     naive's finds at equal budget; jobs=1 vs jobs=2 outcomes identical: %b"
    cases deterministic;
  let path = "BENCH_sched.json" in
  let oc = open_out path in
  output_string oc (json_of ~quick ~jobs ~budget ~deterministic rows);
  close_out oc;
  Tbl.note "wrote %s (schema hwf-bench-sched/2)" path
