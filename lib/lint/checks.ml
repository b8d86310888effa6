open Hwf_sim

type severity = Error | Warning

let pp_severity ppf s = Fmt.string ppf (match s with Error -> "error" | Warning -> "warning")

type finding = { rule : string; severity : severity; pid : int; detail : string }

let pp_finding ppf f =
  Fmt.pf ppf "[%a] %s: %s" pp_severity f.severity f.rule f.detail

type expectation = Exact of int | At_most of int | Helping

(* Findings are deduplicated on their full content and sorted, so the
   output is deterministic however many replays re-observe the same
   offence. *)
let finalize findings =
  List.sort_uniq compare findings
  |> List.sort (fun a b ->
         compare
           ((match a.severity with Error -> 0 | Warning -> 1), a.rule, a.pid, a.detail)
           ((match b.severity with Error -> 0 | Warning -> 1), b.rule, b.pid, b.detail))

let pp_pid ppf pid = if pid < 0 then Fmt.string ppf "p?" else Fmt.pf ppf "p%d" (pid + 1)

let atomicity (runs : Recorder.run list) =
  let out = ref [] in
  let emit rule pid detail = out := { rule; severity = Error; pid; detail } :: !out in
  let check_window (w : Recorder.window) =
    let accs = List.filter (fun (a : Runtime.access) -> not a.instrumentation) w.w_accesses in
    if accs <> [] then begin
      let vars =
        List.map (fun (a : Runtime.access) -> a.var) accs |> List.sort_uniq String.compare
      in
      List.iter
        (fun (a : Runtime.access) ->
          match a.kind with
          | Runtime.Peek | Runtime.Poke ->
            emit "atomicity.harness-access" w.w_pid
              (Fmt.str "%a %s %s inside process code (%s)" pp_pid w.w_pid
                 (match a.kind with Runtime.Peek -> "peeks" | _ -> "pokes")
                 a.var
                 (match w.w_op with
                 | Some op -> Fmt.str "during statement '%a'" Op.pp op
                 | None -> "between statements"))
          | Runtime.Read | Runtime.Write -> ())
        accs;
      match w.w_op with
      | Some (Op.Read v | Op.Write v | Op.Rmw { var = v; _ }) ->
        if List.length vars > 1 then
          emit "atomicity.multi-var" w.w_pid
            (Fmt.str "%a statement '%a' touches %d shared variables (%a)" pp_pid w.w_pid
               Op.pp (Option.get w.w_op) (List.length vars)
               Fmt.(list ~sep:comma string)
               vars);
        List.iter
          (fun var ->
            if var <> v then
              emit "atomicity.var-mismatch" w.w_pid
                (Fmt.str "%a statement '%a' accesses %s" pp_pid w.w_pid Op.pp
                   (Option.get w.w_op) var))
          vars;
        List.iter
          (fun (a : Runtime.access) ->
            match (w.w_op, a.kind) with
            | Some (Op.Read _), Runtime.Write ->
              emit "atomicity.kind-mismatch" w.w_pid
                (Fmt.str "%a writes %s under a read announcement" pp_pid w.w_pid a.var)
            | Some (Op.Write _), Runtime.Read ->
              emit "atomicity.kind-mismatch" w.w_pid
                (Fmt.str "%a reads %s under a write announcement" pp_pid w.w_pid a.var)
            | _ -> ())
          accs
      | Some (Op.Local l) ->
        List.iter
          (fun var ->
            emit "atomicity.unannounced" w.w_pid
              (Fmt.str "%a accesses %s under local statement '%s'" pp_pid w.w_pid var l))
          vars
      | None ->
        List.iter
          (fun (a : Runtime.access) ->
            match a.kind with
            | Runtime.Read | Runtime.Write ->
              emit "atomicity.unannounced" w.w_pid
                (Fmt.str "%a accesses %s without an announced statement" pp_pid w.w_pid
                   a.var)
            | Runtime.Peek | Runtime.Poke -> ()  (* already reported above *))
          accs
    end
  in
  List.iter (fun (r : Recorder.run) -> List.iter check_window r.windows) runs;
  finalize !out

let loop_bound (cfg : Cfg.t) =
  let out = ref [] in
  List.iter
    (fun (l : Cfg.loop) ->
      match l.Cfg.l_class with
      | Cfg.Unbounded ->
        out :=
          {
            rule = "loop-bound.unbounded";
            severity = Error;
            pid = l.Cfg.l_pid;
            detail =
              Fmt.str "%a loop at '%s' in invocation '%s' exceeded the replay budget"
                pp_pid l.Cfg.l_pid l.Cfg.l_head l.Cfg.l_label;
          }
          :: !out
      | Cfg.Helping ->
        out :=
          {
            rule = "loop-bound.helping";
            severity = Warning;
            pid = l.Cfg.l_pid;
            detail =
              Fmt.str
                "%a loop at '%s' in invocation '%s' is helping-bounded (spins on \
                 another process's writes)"
                pp_pid l.Cfg.l_pid l.Cfg.l_head l.Cfg.l_label;
          }
          :: !out
      | Cfg.Static -> ())
    cfg.Cfg.loops;
  List.iter
    (fun (pid, label) ->
      if
        not
          (List.exists
             (fun (l : Cfg.loop) ->
               l.Cfg.l_class = Cfg.Unbounded && l.Cfg.l_pid = pid && l.Cfg.l_label = label)
             cfg.Cfg.loops)
      then
        out :=
          {
            rule = "loop-bound.unbounded";
            severity = Error;
            pid;
            detail =
              Fmt.str "%a invocation '%s' did not complete within the replay budget"
                pp_pid pid label;
          }
          :: !out)
    cfg.Cfg.truncated;
  finalize !out

let quantum_shape ~expect ~min_quantum ~theorem ~(config : Config.t) (cfg : Cfg.t) =
  let out = ref [] in
  (match expect with
  | Exact c ->
    if cfg.Cfg.derived_c <> c then
      out :=
        {
          rule = "quantum-shape.constant";
          severity = Error;
          pid = -1;
          detail =
            Fmt.str "derived per-invocation constant c=%d, but %s asserts exactly %d"
              cfg.Cfg.derived_c theorem c;
        }
        :: !out
  | At_most c ->
    if cfg.Cfg.derived_c > c then
      out :=
        {
          rule = "quantum-shape.constant";
          severity = Error;
          pid = -1;
          detail =
            Fmt.str "derived per-invocation constant c=%d exceeds the %s bound %d"
              cfg.Cfg.derived_c theorem c;
        }
        :: !out
  | Helping -> ());
  if config.Config.quantum < min_quantum then
    out :=
      {
        rule = "quantum-shape.quantum";
        severity = Error;
        pid = -1;
        detail =
          Fmt.str "configured quantum Q=%d is below the %s precondition Q>=%d"
            config.Config.quantum theorem min_quantum;
      }
      :: !out;
  finalize !out

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let priority (runs : Recorder.run list) =
  let out = ref [] in
  List.iter
    (fun (r : Recorder.run) ->
      (match r.outcome with
      | Error (Invalid_argument msg) when contains ~sub:"set_priority" msg ->
        out := { rule = "priority.mid-invocation"; severity = Error; pid = -1; detail = msg } :: !out
      | Error e ->
        out :=
          {
            rule = "lint.crash";
            severity = Error;
            pid = -1;
            detail =
              Fmt.str "replay under %s raised %s" r.policy_name (Printexc.to_string e);
          }
          :: !out
      | Ok _ -> ());
      (* Defense in depth: the engine already rejects mid-invocation
         priority changes, but a recorded event stream is re-checked so
         a bypassing code path cannot lint clean. *)
      let mid = Hashtbl.create 4 in
      List.iter
        (fun ev ->
          match ev with
          | Trace.Inv_begin { pid; _ } -> Hashtbl.replace mid pid true
          | Trace.Inv_end { pid; _ } -> Hashtbl.replace mid pid false
          | Trace.Set_priority { pid; priority } ->
            if Hashtbl.find_opt mid pid = Some true then
              out :=
                {
                  rule = "priority.mid-invocation";
                  severity = Error;
                  pid;
                  detail =
                    Fmt.str "%a changed priority to %d inside an invocation" pp_pid pid
                      priority;
                }
                :: !out
          | Trace.Stmt _ | Trace.Axiom2_gate _ -> ())
        r.events)
    runs;
  finalize !out
