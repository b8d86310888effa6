open Hwf_sim
module Json = Hwf_obs.Json

let pp_outcome ppf (o : Lint.outcome) =
  let errors = Lint.errors o and warnings = Lint.warnings o in
  Fmt.pf ppf "@[<v>lint %s (%s): %s — %d replays, derived c=%d, %d error%s, %d warning%s@,"
    o.Lint.spec.Lint.name o.Lint.spec.Lint.theorem
    (if Lint.ok o then "OK" else "FAIL")
    o.Lint.runs o.Lint.cfg.Cfg.derived_c (List.length errors)
    (if List.length errors = 1 then "" else "s")
    (List.length warnings)
    (if List.length warnings = 1 then "" else "s");
  List.iter
    (fun (s : Cfg.shape) ->
      Fmt.pf ppf "  inv '%s': max %d stmts, %d completed@," s.Cfg.s_label
        s.Cfg.s_max_stmts s.Cfg.s_completed)
    o.Lint.cfg.Cfg.shapes;
  List.iter
    (fun (l : Cfg.loop) ->
      Fmt.pf ppf "  loop p%d '%s' at '%s': %a@," (l.Cfg.l_pid + 1) l.Cfg.l_label
        l.Cfg.l_head Cfg.pp_class l.Cfg.l_class)
    o.Lint.cfg.Cfg.loops;
  List.iter (fun f -> Fmt.pf ppf "  %a@," Checks.pp_finding f) o.Lint.findings;
  Fmt.pf ppf "@]"

(* ---- JSONL (schema hwf-lint/1; see docs/OBSERVABILITY.md) ----
   Same determinism contract as the trace/metrics writers: fixed field
   order, ints/bools/strings only, rows sorted — byte-equal output for
   equal inputs. *)

let to_buffer buf (o : Lint.outcome) =
  let line fields = Json.add_line buf (Json.Obj fields) in
  let int n = Json.Int n and str s = Json.Str s in
  let config = o.Lint.spec.Lint.config in
  line
    [
      ("schema", str Json.Schema.lint.tag);
      ("subject", str o.Lint.spec.Lint.name);
      ("theorem", str o.Lint.spec.Lint.theorem);
      ("n", int (Config.n config));
      ("processors", int config.Config.processors);
      ("quantum", int config.Config.quantum);
      ("levels", int config.Config.levels);
    ];
  line
    [
      ("l", str "summary");
      ("ok", Json.Bool (Lint.ok o));
      ("runs", int o.Lint.runs);
      ("derived_c", int o.Lint.cfg.Cfg.derived_c);
      ("min_quantum", int o.Lint.spec.Lint.min_quantum);
      ("errors", int (List.length (Lint.errors o)));
      ("warnings", int (List.length (Lint.warnings o)));
    ];
  List.iter
    (fun (f : Checks.finding) ->
      line
        [
          ("l", str "finding");
          ("rule", str f.Checks.rule);
          ("severity", str (Fmt.str "%a" Checks.pp_severity f.Checks.severity));
          ("pid", int f.Checks.pid);
          ("detail", str f.Checks.detail);
        ])
    o.Lint.findings;
  List.iter
    (fun (s : Cfg.shape) ->
      line
        [
          ("l", str "inv");
          ("label", str s.Cfg.s_label);
          ("max_stmts", int s.Cfg.s_max_stmts);
          ("completed", int s.Cfg.s_completed);
        ])
    o.Lint.cfg.Cfg.shapes;
  List.iter
    (fun (l : Cfg.loop) ->
      line
        [
          ("l", str "loop");
          ("pid", int l.Cfg.l_pid);
          ("label", str l.Cfg.l_label);
          ("head", str l.Cfg.l_head);
          ("class", str (Fmt.str "%a" Cfg.pp_class l.Cfg.l_class));
        ])
    o.Lint.cfg.Cfg.loops;
  List.iter
    (fun (v, (i : Astore.info)) ->
      line
        [
          ("l", str "var");
          ("var", str v);
          ("readers", int (List.length (Astore.readers o.Lint.store v)));
          ("writers", int (List.length (Astore.writers o.Lint.store v)));
          ("peeks", int i.Astore.peeks);
          ("pokes", int i.Astore.pokes);
          ("instrumented", int i.Astore.instrumented);
        ])
    (Astore.vars o.Lint.store)

let to_string (outcomes : Lint.outcome list) =
  let buf = Buffer.create 4096 in
  List.iter (fun o -> to_buffer buf o) outcomes;
  Buffer.contents buf

let write ~path outcomes =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string outcomes))
