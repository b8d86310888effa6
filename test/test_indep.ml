(* The static independence oracle and its swap-replay certifier, plus
   the DPOR parity matrix: verdicts and first counterexamples must be
   byte-identical across --no-dpor / sleep sets (base relation) / the
   statically-derived relation, while run counts only shrink. *)

open Hwf_sim
open Hwf_objects
open Hwf_lint
module Explore = Hwf_adversary.Explore

let two_cpu =
  Config.make ~quantum:4 ~processors:2 ~levels:1
    [
      Proc.make ~pid:0 ~processor:0 ~priority:1 ();
      Proc.make ~pid:1 ~processor:1 ~priority:1 ();
    ]

let spec ~name ~make =
  {
    Lint.name;
    config = two_cpu;
    make;
    expect = Checks.Helping;
    min_quantum = 1;
    theorem = "test";
    fair_only = true;
    step_limit = 2_000;
  }

(* Two fetch&adds per process on one counter, results discarded: the
   canonical commuting workload the oracle must prove. *)
let fai_make () =
  let c = Hw_atomic.make "ind.c" 0 in
  Array.init 2 (fun _ () ->
      Eff.invocation "incr" (fun () ->
          ignore (Hw_atomic.fetch_and_add c 1);
          ignore (Hw_atomic.fetch_and_add c 1)))

let fai_fp pid processor =
  {
    Policy.fpid = pid;
    fproc = processor;
    fvar = Some "ind.c";
    fwrite = true;
    fknown = true;
    fop = Some (Op.rmw ~var:"ind.c" ~kind:"F&A");
  }

let test_oracle_proves () =
  let o = Lint.run (spec ~name:"indep-fai" ~make:fai_make) in
  let t = Indep.build o in
  let s = Indep.summary t in
  Util.checkb "nodes observed" (s.Indep.rmw_nodes >= 2);
  Util.checkb "nodes insensitive" (s.Indep.insensitive_nodes >= 2);
  Util.checkb "pairs proven" (s.Indep.indep_pairs >= 1);
  Util.checkb "var reported" (List.mem "ind.c" s.Indep.indep_vars);
  let rel = Indep.relation t in
  Util.checkb "baseline rejects same-var RMWs"
    (not (Policy.independent (fai_fp 0 0) (fai_fp 1 1)));
  Util.checkb "oracle commutes them" (rel (fai_fp 0 0) (fai_fp 1 1));
  Util.checkb "symmetric" (rel (fai_fp 1 1) (fai_fp 0 0));
  Util.checkb "same processor never commutes" (not (rel (fai_fp 0 0) (fai_fp 1 0)))

(* A fetched value that steers a branch: the node has two CFG
   successors, so the oracle must refuse to commute it. *)
let test_branchy_refused () =
  let make () =
    let c = Hw_atomic.make "br.c" 0 in
    Array.init 2 (fun _ () ->
        Eff.invocation "incr" (fun () ->
            let a = Hw_atomic.fetch_and_add c 1 in
            if a = 0 then Eff.local "won";
            let b = Hw_atomic.fetch_and_add c 1 in
            if b = 0 then Eff.local "won"))
  in
  let o = Lint.run (spec ~name:"indep-branchy" ~make) in
  let t = Indep.build o in
  let op = Op.rmw ~var:"br.c" ~kind:"F&A" in
  Util.checkb "branchy node not insensitive" (not (Indep.insensitive t 0 op));
  let fp pid processor =
    { (fai_fp pid processor) with Policy.fvar = Some "br.c"; fop = Some op }
  in
  Util.checkb "relation refuses" (not (Indep.relation t (fp 0 0) (fp 1 1)))

(* Non-additive RMW kinds (C&S) stay dependent even when insensitive. *)
let test_cas_refused () =
  let make () =
    let c = Hw_atomic.make "cs.c" 0 in
    Array.init 2 (fun pid () ->
        Eff.invocation "set" (fun () ->
            ignore (Hw_atomic.cas c ~expected:pid ~desired:7)))
  in
  let o = Lint.run (spec ~name:"indep-cas" ~make) in
  let t = Indep.build o in
  let op = Op.rmw ~var:"cs.c" ~kind:"C&S" in
  let fp pid processor =
    { (fai_fp pid processor) with Policy.fvar = Some "cs.c"; fop = Some op }
  in
  Util.checkb "C&S never commuted" (not (Indep.relation t (fp 0 0) (fp 1 1)))

let test_certify_clean () =
  let o = Lint.run (spec ~name:"indep-fai" ~make:fai_make) in
  match Indep.certified_relation ~config:two_cpu ~make:fai_make o with
  | Ok (_, cert) ->
    Util.checkb "swaps replayed" (cert.Indep.swaps >= 1);
    Util.checkb "no failures" (cert.Indep.failures = [])
  | Error m -> Alcotest.failf "certification failed on clean workload: %s" m

(* The data-escape hole: the fetched old value escapes into the harness
   verdict, invisible to the CFG. Static analysis claims the F&As
   commute; the swap replay must refute it. *)
let test_certify_catches_escape () =
  let current = ref [||] in
  (* Two F&As per process: a process's first statement executes at its
     wake-up decision, where its footprint is still unknown (nothing is
     claimed about wakes); the second statements are the adjacent
     known-footprint pair the oracle claims commute. *)
  let make () =
    let c = Hw_atomic.make "esc.c" 0 in
    let outs = Array.make 2 (-1) in
    current := outs;
    Array.init 2 (fun pid () ->
        Eff.invocation "incr" (fun () ->
            ignore (Hw_atomic.fetch_and_add c 1);
            outs.(pid) <- Hw_atomic.fetch_and_add c 1))
  in
  let check (_ : Engine.result) =
    if !current.(0) = 2 then Ok () else Error "p0 lost the race"
  in
  let o = Lint.run (spec ~name:"indep-escape" ~make) in
  let t = Indep.build o in
  Util.checkb "statically claimed independent"
    (Indep.relation t
       { (fai_fp 0 0) with Policy.fvar = Some "esc.c"; fop = Some (Op.rmw ~var:"esc.c" ~kind:"F&A") }
       { (fai_fp 1 1) with Policy.fvar = Some "esc.c"; fop = Some (Op.rmw ~var:"esc.c" ~kind:"F&A") });
  match Indep.certified_relation ~check ~config:two_cpu ~make o with
  | Ok _ -> Alcotest.fail "certifier missed the data escape"
  | Error m -> Util.checkb "mentions refutation" (Util.contains m "refuted")

(* ---- the parity matrix ----

   For each scenario: --no-dpor, sleep sets under the base relation,
   and sleep sets under the certified static relation must agree on
   exhaustiveness, verdict, and the first counterexample (message and
   decision path, byte for byte); run counts only shrink. *)

let fai_scenario =
  Explore.
    {
      name = "indep-fai";
      config = two_cpu;
      make =
        (fun () ->
          let c = Hw_atomic.make "ind.c" 0 in
          let programs =
            Array.init 2 (fun _ () ->
                Eff.invocation "incr" (fun () ->
                    ignore (Hw_atomic.fetch_and_add c 1);
                    ignore (Hw_atomic.fetch_and_add c 1)))
          in
          let check (r : Engine.result) =
            if not (Array.for_all Fun.id r.Engine.finished) then
              Error "not all finished"
            else if Hw_atomic.peek c <> 4 then
              Error (Fmt.str "bad final: %d" (Hw_atomic.peek c))
            else Ok ()
          in
          { Explore.programs; check });
    }

let lost_update_scenario =
  Explore.
    {
      name = "indep-lost-update";
      config = two_cpu;
      make =
        (fun () ->
          let x = Shared.make "lu.x" 0 in
          let programs =
            Array.init 2 (fun _ () ->
                Eff.invocation "incr" (fun () ->
                    let v = Shared.read x in
                    Shared.write x (v + 1)))
          in
          let check (r : Engine.result) =
            if not (Array.for_all Fun.id r.Engine.finished) then
              Error "not all finished"
            else if Shared.peek x <> 2 then
              Error (Fmt.str "lost update: x=%d" (Shared.peek x))
            else Ok ()
          in
          { Explore.programs; check });
    }

let static_relation_for (s : Explore.scenario) =
  let make () = (s.Explore.make ()).Explore.programs in
  let o = Lint.run (spec ~name:s.Explore.name ~make) in
  match Indep.certified_relation ~config:s.Explore.config ~make o with
  | Ok (t, _) -> { Explore.rname = "static"; rel = Indep.relation t }
  | Error m -> Alcotest.failf "certification failed for %s: %s" s.Explore.name m

let cx_key (o : Explore.outcome) =
  Option.map
    (fun (c : Explore.counterexample) -> (c.Explore.message, c.Explore.decisions))
    o.Explore.counterexample

let matrix_cell (s : Explore.scenario) ~expect_prune =
  let full = Explore.explore ~dpor:false s in
  let base = Explore.explore s in
  let rel = static_relation_for s in
  let stats = Explore.make_stats ~jobs:1 s in
  let static = Explore.explore ~relation:rel ~stats s in
  (* A found counterexample stops the search, so exhaustiveness must
     merely agree across modes, not hold. *)
  Alcotest.(check bool) "exhaustive: full = base" full.Explore.exhaustive
    base.Explore.exhaustive;
  Alcotest.(check bool) "exhaustive: base = static" base.Explore.exhaustive
    static.Explore.exhaustive;
  Alcotest.(check bool) "cx: full = base" true (cx_key full = cx_key base);
  Alcotest.(check bool) "cx: base = static" true (cx_key base = cx_key static);
  Util.checkb "base <= full" (base.Explore.runs <= full.Explore.runs);
  Util.checkb "static <= base" (static.Explore.runs <= base.Explore.runs);
  if expect_prune then
    Util.checkb
      (Fmt.str "static strictly prunes (%d < %d)" static.Explore.runs
         base.Explore.runs)
      (static.Explore.runs < base.Explore.runs);
  (* The counters surface: prunes are visible, not silent. *)
  Util.checkb "prune counters consistent"
    (Explore.stats_pruned stats >= 0 && Explore.stats_source_prunes stats >= 0);
  static

let test_matrix_fai () =
  let o = matrix_cell fai_scenario ~expect_prune:true in
  Util.checkb "clean scenario exhaustive" o.Explore.exhaustive;
  Util.checkb "no counterexample" (o.Explore.counterexample = None)

let test_matrix_lost_update () =
  (* Plain accesses: the oracle adds nothing, so the counterexample must
     survive byte for byte through the identical search. *)
  let o = matrix_cell lost_update_scenario ~expect_prune:false in
  Util.checkb "counterexample found" (o.Explore.counterexample <> None)

(* The static relation composes with the parallel fan-out: jobs > 1
   must not change the outcome. *)
let test_static_jobs_identity () =
  let rel = static_relation_for fai_scenario in
  let o1 = Explore.explore ~relation:rel ~jobs:1 fai_scenario in
  let o2 = Explore.explore ~relation:rel ~jobs:2 fai_scenario in
  Alcotest.(check int) "runs" o1.Explore.runs o2.Explore.runs;
  Alcotest.(check bool) "exhaustive" o1.Explore.exhaustive o2.Explore.exhaustive;
  Alcotest.(check bool) "cx" true (cx_key o1 = cx_key o2)

let () =
  Alcotest.run "indep"
    [
      ( "oracle",
        [
          Alcotest.test_case "proves commuting F&As" `Quick test_oracle_proves;
          Alcotest.test_case "refuses branchy nodes" `Quick test_branchy_refused;
          Alcotest.test_case "refuses C&S" `Quick test_cas_refused;
        ] );
      ( "certifier",
        [
          Alcotest.test_case "clean workload certifies" `Quick test_certify_clean;
          Alcotest.test_case "data escape refuted" `Quick test_certify_catches_escape;
        ] );
      ( "parity",
        [
          Alcotest.test_case "fai matrix" `Quick test_matrix_fai;
          Alcotest.test_case "lost-update matrix" `Quick test_matrix_lost_update;
          Alcotest.test_case "jobs identity" `Quick test_static_jobs_identity;
        ] );
    ]
