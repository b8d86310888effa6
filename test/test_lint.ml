open Hwf_sim
open Hwf_workload
open Hwf_lint

(* The conformance linter: clean subjects lint clean, the known-bad
   corpus is rejected with the expected rules, the derived constants
   match the theorem preconditions, and the two independent Axiom-2
   implementations agree. *)

let budget = 6

let test_registry_clean () =
  List.iter
    (fun (spec : Lint.spec) ->
      let o = Lint.run ~budget spec in
      (match Lint.errors o with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: %d errors, first: %a" spec.Lint.name (List.length errs)
          Checks.pp_finding (List.hd errs));
      Util.checkb
        (spec.Lint.name ^ " replays ran")
        (o.Lint.runs > 0 && o.Lint.cfg.Cfg.derived_c > 0))
    (Registry.all ())

let test_derived_constants () =
  (* Fig. 3's derived constant is exactly the Theorem 1 count — the
     acceptance pin for the whole quantum-shape checker. *)
  let o = Lint.run ~budget (Registry.fig3 ()) in
  Alcotest.(check int)
    "fig3 derived c" Hwf_core.Uni_consensus.statements_per_decide o.Lint.cfg.Cfg.derived_c;
  (* Fig. 5/7 and the universal construction stay within the declared
     constants the certifier uses for its own-step bounds. *)
  let within spec bound =
    let o = Lint.run ~budget spec in
    if o.Lint.cfg.Cfg.derived_c > bound then
      Alcotest.failf "%s: derived %d > declared %d" spec.Lint.name o.Lint.cfg.Cfg.derived_c
        bound
  in
  within (Registry.fig5 ())
    (Hwf_core.Bounds.fig5_stmt_const * Layout.levels [ (0, 1); (0, 2); (0, 3) ]);
  within (Registry.universal ()) (Hwf_core.Bounds.universal_stmt_const * 3)

let test_fig9_helping_loop () =
  (* The Sec. 5 spin-wait must be classified helping-bounded, not
     unbounded: the loser loops on the winner's Output write. *)
  let o = Lint.run ~budget (Registry.fig9 ()) in
  Util.checkb "lints clean" (Lint.ok o);
  Util.checkb "has a helping loop"
    (List.exists (fun (l : Cfg.loop) -> l.Cfg.l_class = Cfg.Helping) o.Lint.cfg.Cfg.loops);
  Util.checkb "no unbounded loop"
    (List.for_all
       (fun (l : Cfg.loop) -> l.Cfg.l_class <> Cfg.Unbounded)
       o.Lint.cfg.Cfg.loops)

let test_corpus_rejected () =
  List.iter
    (fun (c : Hwf_lint_corpus.Corpus.case) ->
      let o, fired = Hwf_lint_corpus.Corpus.fires ~budget c in
      if not fired then
        Alcotest.failf "corpus %s: expected rule %s, findings: %a" o.Lint.spec.Lint.name
          c.Hwf_lint_corpus.Corpus.expected_rule
          Fmt.(Dump.list Checks.pp_finding)
          o.Lint.findings)
    (Hwf_lint_corpus.Corpus.all ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_deterministic () =
  let once () = Report.to_string [ Lint.run ~budget (Registry.fig3 ()) ] in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-equal reports" a b;
  Util.checkb "carries schema tag" (String.length a > 0 && contains ~sub:"hwf-lint/1" a)

(* ---- the CFG against a naive reference ----

   A test-only rebuild of {!Cfg.build} straight from its interface
   definition, deliberately quadratic: every statement walks back
   through its invocation's earlier statements, re-rendering each, to
   find its previous occurrence. The library's builder renders each
   statement once and indexes positions; the two must agree on every
   field. *)
module Naive_cfg = struct
  let render op = Fmt.str "%a" Op.pp op

  let build store (runs : Recorder.run list) : Cfg.t =
    let edges = Hashtbl.create 256 and loops = Hashtbl.create 16 in
    let shapes = Hashtbl.create 16 and truncated = Hashtbl.create 8 in
    let helping pid body =
      List.exists
        (function
          | Op.Read v | Op.Rmw { var = v; _ } -> Astore.written_by_other store ~var:v ~pid
          | Op.Write _ | Op.Local _ -> false)
        body
    in
    let shape label =
      match Hashtbl.find_opt shapes label with
      | Some s -> s
      | None ->
        let s = { Cfg.s_label = label; s_max_stmts = 0; s_completed = 0 } in
        Hashtbl.add shapes label s;
        s
    in
    let last_node label = function [] -> "entry:" ^ label | last :: _ -> render last in
    List.iter
      (fun (r : Recorder.run) ->
        (* pid -> (label, statements so far, latest first) *)
        let open_ = Hashtbl.create 8 in
        List.iter
          (function
            | Trace.Inv_begin { pid; label; _ } -> Hashtbl.replace open_ pid (label, [])
            | Trace.Stmt { pid; op; _ } -> (
              match Hashtbl.find_opt open_ pid with
              | None -> ()
              | Some (label, ops) ->
                let k = render op in
                Hashtbl.replace edges (pid, last_node label ops, k) ();
                (* Walk back to the previous occurrence of [k]; the
                   statements from it on are one loop iteration. *)
                let rec back body = function
                  | [] -> None
                  | o :: older ->
                    if render o = k then Some (o :: body) else back (o :: body) older
                in
                (match back [] ops with
                | Some body when not (Hashtbl.mem loops (pid, label, k)) ->
                  Hashtbl.add loops (pid, label, k)
                    {
                      Cfg.l_pid = pid;
                      l_label = label;
                      l_head = k;
                      l_body = body;
                      l_class = (if helping pid body then Cfg.Helping else Cfg.Static);
                    }
                | _ -> ());
                Hashtbl.replace open_ pid (label, op :: ops))
            | Trace.Inv_end { pid; label; _ } -> (
              match Hashtbl.find_opt open_ pid with
              | None -> ()
              | Some (_, ops) ->
                Hashtbl.replace edges (pid, last_node label ops, "exit:" ^ label) ();
                let s = shape label in
                s.s_max_stmts <- max s.s_max_stmts (List.length ops);
                s.s_completed <- s.s_completed + 1;
                Hashtbl.remove open_ pid)
            | Trace.Set_priority _ | Trace.Axiom2_gate _ -> ())
          r.events;
        match r.outcome with
        | Ok { Engine.stop = Engine.Step_limit | Engine.Decision_limit; _ } ->
          Hashtbl.iter
            (fun pid (label, _) ->
              Hashtbl.replace truncated (pid, label) ();
              Hashtbl.iter
                (fun _ (l : Cfg.loop) ->
                  if l.l_pid = pid && l.l_label = label then l.l_class <- Cfg.Unbounded)
                loops)
            open_
        | Ok _ | Error _ -> ())
      runs;
    let sorted_keys tbl =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
    in
    let shapes = List.map (Hashtbl.find shapes) (sorted_keys shapes) in
    {
      Cfg.edges = sorted_keys edges;
      loops = List.map (Hashtbl.find loops) (sorted_keys loops);
      shapes;
      truncated = sorted_keys truncated;
      derived_c = List.fold_left (fun acc s -> max acc s.Cfg.s_max_stmts) 0 shapes;
    }
end

let test_cfg_matches_reference () =
  let same ~what (spec : Lint.spec) ?budget () =
    let o = Lint.run ?budget spec in
    let want = Naive_cfg.build o.Lint.store o.Lint.runs_detail and got = o.Lint.cfg in
    let name field =
      Fmt.str "%s %s (budget %s): %s" what spec.Lint.name
        (match budget with None -> "default" | Some b -> string_of_int b)
        field
    in
    Util.checkb (name "edges") (got.Cfg.edges = want.Cfg.edges);
    Util.checkb (name "loops") (got.Cfg.loops = want.Cfg.loops);
    Util.checkb (name "shapes") (got.Cfg.shapes = want.Cfg.shapes);
    Util.checkb (name "truncated") (got.Cfg.truncated = want.Cfg.truncated);
    Alcotest.(check int) (name "derived_c") want.Cfg.derived_c got.Cfg.derived_c
  in
  List.iter
    (fun budget ->
      List.iter (fun spec -> same ~what:"registry" spec ?budget ()) (Registry.all ());
      List.iter
        (fun (c : Hwf_lint_corpus.Corpus.case) -> same ~what:"corpus" c.spec ?budget ())
        (Hwf_lint_corpus.Corpus.all ()))
    [ None; Some 2 ]

(* ---- satellite 1: the peek/poke guard without a tap installed ---- *)

let test_peek_guard_raises () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.x" 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            ignore (Shared.peek x)));
    |]
  in
  Alcotest.check_raises "peek rejected"
    (Invalid_argument "Shared.peek: harness-only access to guard.x from process code")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies));
  (* Outside process code the same peek is the supported harness path. *)
  Alcotest.(check int) "harness peek still works" 0 (Shared.peek x)

let test_poke_guard_raises () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.y" 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Shared.poke x 1));
    |]
  in
  Alcotest.check_raises "poke rejected"
    (Invalid_argument "Shared.poke: harness-only access to guard.y from process code")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_instrumentation_escape_hatch () =
  let config =
    Config.uniprocessor ~quantum:8 ~levels:1 [ Proc.make ~pid:0 ~processor:0 ~priority:1 () ]
  in
  let x = Shared.make "guard.z" 41 in
  let seen = ref 0 in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore (Shared.read x);
            Runtime.instrumentation (fun () -> seen := Shared.peek x)));
    |]
  in
  let r = Engine.run ~config ~policy:Policy.first bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  Alcotest.(check int) "instrumented peek saw the value" 41 !seen

(* ---- satellite 2: the two Axiom-2 implementations cross-validate ---- *)

let quantum_pairs vs =
  List.filter_map
    (fun (v : Wellformed.violation) ->
      match v.Wellformed.axiom with
      | `Quantum | `Burst -> Some (v.Wellformed.at, v.Wellformed.pid, v.Wellformed.blame)
      | `Priority -> None)
    vs

let test_burst_checker_fires () =
  (* Hand-built violating trace: p0 is preempted, resumes (earning a
     Q=4 guarantee), and p1 then executes a same-priority statement
     inside p0's burst. Both implementations must flag statement 3. *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:1
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 2; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 3; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  (match Wellformed.check t with
  | [ { Wellformed.at = 3; pid = 1; axiom = `Quantum; blame = 0 } ] -> ()
  | vs -> Alcotest.failf "check: expected one quantum violation at 3, got %a"
            Fmt.(Dump.list Wellformed.pp_violation) vs);
  match Wellformed.axiom2_bursts t with
  | [ { Wellformed.at = 3; pid = 1; axiom = `Burst; blame = 0 } ] -> ()
  | vs ->
    Alcotest.failf "bursts: expected one burst violation at 3, got %a"
      Fmt.(Dump.list Wellformed.pp_violation) vs

let test_burst_agrees_on_engine_traces () =
  (* Engine-produced traces are well-formed, so both checkers must
     report nothing — and they must agree violation-for-violation on
     every replayed schedule of the registry's smallest subject. *)
  let spec = Registry.fig3 () in
  List.iter
    (fun (name, policy) ->
      let r =
        Engine.run ~step_limit:100_000 ~config:spec.Lint.config ~policy:(policy ())
          (spec.Lint.make ())
      in
      let a = quantum_pairs (Wellformed.check r.Engine.trace) in
      let b = quantum_pairs (Wellformed.axiom2_bursts r.Engine.trace) in
      Alcotest.(check (list (triple int int int))) (name ^ " agree") a b;
      Alcotest.(check (list (triple int int int))) (name ^ " well-formed") [] a)
    (Recorder.battery ~budget:8 ~fair_only:false ())

let test_burst_respects_gate () =
  (* Same violating trace, but the gate is off around the offending
     statement: neither implementation may report it. *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:1
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let t = Trace.create config in
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "a" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "b" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Stmt { idx = 2; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Axiom2_gate { at = 3; active = false });
  Trace.add t (Trace.Stmt { idx = 3; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Alcotest.(check int) "check suppressed" 0 (List.length (quantum_pairs (Wellformed.check t)));
  Alcotest.(check int) "bursts suppressed" 0
    (List.length (quantum_pairs (Wellformed.axiom2_bursts t)))

let () =
  Alcotest.run "lint"
    [
      ( "linter",
        [
          Alcotest.test_case "registry lints clean" `Quick test_registry_clean;
          Alcotest.test_case "derived constants match theorems" `Quick test_derived_constants;
          Alcotest.test_case "fig9 helping loop" `Quick test_fig9_helping_loop;
          Alcotest.test_case "corpus rejected" `Quick test_corpus_rejected;
          Alcotest.test_case "report deterministic" `Quick test_report_deterministic;
          Alcotest.test_case "cfg matches naive reference" `Quick
            test_cfg_matches_reference;
        ] );
      ( "guard",
        [
          Alcotest.test_case "peek raises in process code" `Quick test_peek_guard_raises;
          Alcotest.test_case "poke raises in process code" `Quick test_poke_guard_raises;
          Alcotest.test_case "instrumentation escape hatch" `Quick
            test_instrumentation_escape_hatch;
        ] );
      ( "axiom2-burst",
        [
          Alcotest.test_case "fires on violating trace" `Quick test_burst_checker_fires;
          Alcotest.test_case "agrees with check on engine traces" `Quick
            test_burst_agrees_on_engine_traces;
          Alcotest.test_case "respects the gate" `Quick test_burst_respects_gate;
        ] );
    ]
