open Hwf_sim

(* The JSON-lines writers: every row is one compact {!Json} object.
   Field order is fixed, so equal inputs give byte-equal output (the
   determinism the golden tests and the --jobs contract rely on); the
   schemas are declared in {!Json.Schema} and documented in
   docs/OBSERVABILITY.md. *)

let int n = Json.Int n
let str s = Json.Str s

let config_fields (config : Config.t) =
  [
    ("n", int (Config.n config));
    ("processors", int config.Config.processors);
    ("quantum", int config.Config.quantum);
    ("levels", int config.Config.levels);
    ("axiom2", Json.Bool config.Config.axiom2);
    ("tmin", int config.Config.tmin);
    ("tmax", int config.Config.tmax);
  ]

let header (schema : Json.Schema.t) fields = Json.Obj (("schema", str schema.tag) :: fields)

(* ---- traces ---- *)

let op_json (op : Op.t) =
  Json.Obj
    (match op with
    | Op.Read v -> [ ("kind", str "read"); ("var", str v) ]
    | Op.Write v -> [ ("kind", str "write"); ("var", str v) ]
    | Op.Rmw { var; kind } -> [ ("kind", str "rmw"); ("var", str var); ("rmw", str kind) ]
    | Op.Local l -> [ ("kind", str "local"); ("label", str l) ])

let event (e : Trace.event) =
  Json.Obj
    (match e with
    | Trace.Stmt { idx; pid; op; inv; cost } ->
      [
        ("ev", str "stmt");
        ("idx", int idx);
        ("pid", int pid);
        ("inv", int inv);
        ("cost", int cost);
        ("op", op_json op);
      ]
    | Trace.Inv_begin { pid; inv; label } ->
      [ ("ev", str "inv_begin"); ("pid", int pid); ("inv", int inv); ("label", str label) ]
    | Trace.Inv_end { pid; inv; label } ->
      [ ("ev", str "inv_end"); ("pid", int pid); ("inv", int inv); ("label", str label) ]
    | Trace.Set_priority { pid; priority } ->
      [ ("ev", str "set_priority"); ("pid", int pid); ("priority", int priority) ]
    | Trace.Axiom2_gate { at; active } ->
      [ ("ev", str "axiom2_gate"); ("at", int at); ("active", Json.Bool active) ])

let trace_to_string trace =
  let buf = Buffer.create 4096 in
  Json.add_line buf (header Json.Schema.trace (config_fields (Trace.config trace)));
  Trace.iter (fun e -> Json.add_line buf (event e)) trace;
  Buffer.contents buf

(* ---- metrics ---- *)

let metrics_to_string (m : Metrics.t) =
  let buf = Buffer.create 2048 in
  let line fields = Json.add_line buf (Json.Obj fields) in
  Json.add_line buf
    (header Json.Schema.metrics [ ("n", int m.Metrics.n); ("quantum", int m.Metrics.quantum) ]);
  line
    [
      ("m", str "totals");
      ("statements", int m.Metrics.statements);
      ("time", int m.Metrics.time);
      ("switches", int m.Metrics.switches);
    ];
  Array.iteri
    (fun pid (s : Metrics.pid_stat) ->
      line
        [
          ("m", str "pid");
          ("pid", int pid);
          ("statements", int s.Metrics.statements);
          ("time", int s.Metrics.time);
          ("invocations", int s.Metrics.invocations);
          ("completed", int s.Metrics.completed);
          ("same_preemptions", int s.Metrics.same_preemptions);
          ("higher_preemptions", int s.Metrics.higher_preemptions);
          ("priority_changes", int s.Metrics.priority_changes);
          ("guarantee_grants", int s.Metrics.guarantee_grants);
          ("protected_statements", int s.Metrics.protected_statements);
        ])
    m.Metrics.per_pid;
  List.iter
    (fun (i : Metrics.inv_stat) ->
      line
        [
          ("m", str "inv");
          ("pid", int i.Metrics.pid);
          ("inv", int i.Metrics.inv);
          ("label", str i.Metrics.label);
          ("statements", int i.Metrics.statements);
          ("time", int i.Metrics.time);
          ("same_preemptions", int i.Metrics.same_preemptions);
          ("higher_preemptions", int i.Metrics.higher_preemptions);
          ("completed", Json.Bool i.Metrics.completed);
        ])
    m.Metrics.invocations;
  List.iter
    (fun (r : Metrics.bound_row) ->
      line
        (("m", str "bound")
        :: ("name", str r.Metrics.name)
        :: ("measured", int r.Metrics.measured)
        ::
        (match r.Metrics.bound with
        | None -> []
        | Some b -> [ ("bound", int b); ("margin", int (b - r.Metrics.measured)) ])))
    m.Metrics.bounds;
  List.iter
    (fun (k, v) -> line [ ("m", str "harness"); ("key", str k); ("value", int v) ])
    m.Metrics.harness;
  Buffer.contents buf

(* ---- analyze (race certification) ---- *)

let races_to_string ~config (r : Races.report) =
  let buf = Buffer.create 1024 in
  let line fields = Json.add_line buf (Json.Obj fields) in
  Json.add_line buf (header Json.Schema.analyze (config_fields config));
  List.iter
    (fun (race : Races.race) ->
      line
        [
          ("a", str "race");
          ("var", str race.Races.var);
          ("pid", int race.Races.pid);
          ("idx", int race.Races.idx);
          ("op", op_json race.Races.op);
          ("prior_pid", int race.Races.prior_pid);
          ("prior_access", str (Races.access_tag race.Races.prior_access));
          ("prior_idx", int race.Races.prior_idx);
        ])
    r.Races.races;
  line
    [
      ("a", str "summary");
      ("statements", int r.Races.statements);
      ("accesses", int r.Races.accesses);
      ("vars", int r.Races.vars);
      ("races", int (Races.count r));
      ("racy_vars", Json.List (List.map str r.Races.racy_vars));
    ];
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace ~path trace = write_file path (trace_to_string trace)
let write_metrics ~path m = write_file path (metrics_to_string m)
let write_races ~path ~config r = write_file path (races_to_string ~config r)
