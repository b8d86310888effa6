(* The JSON codec and the schema table (Hwf_obs.Json): the validator's
   accept/reject rules, every export the repository writes validating
   against its declared schema, and parser round trips through the
   escaper. *)

open Hwf_sim
open Hwf_workload
open Hwf_adversary
module Json = Hwf_obs.Json

let valid label contents =
  match Json.Schema.validate contents with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: rejected: %s" label e

let invalid label contents =
  match Json.Schema.validate contents with
  | Ok s -> Alcotest.failf "%s: accepted (%s)" label s
  | Error _ -> ()

(* ---- the validator's rules ---- *)

let test_schema_tag () =
  invalid "missing schema" "{\"n\":1}\n{\"ev\":\"x\"}\n";
  invalid "unknown schema" "{\"schema\":\"hwf-nope/1\"}\n{\"ev\":\"x\"}\n";
  invalid "empty file" "";
  invalid "line 1 not an object" "[1]\n";
  invalid "whole-file tag on one line"
    "{\"schema\":\"hwf-bench-sched/2\",\"host\":{},\"cells\":[{\"case\":\"a\",\
     \"strategy\":\"b\",\"runs\":1,\"found\":true}]}\n";
  valid "trace" "{\"schema\":\"hwf-trace/1\"}\n{\"ev\":\"x\"}\n"

let test_discriminator () =
  invalid "row without ev" "{\"schema\":\"hwf-trace/1\"}\n{\"ev\":\"x\"}\n{\"idx\":1}\n";
  invalid "metrics row with the trace discriminator"
    "{\"schema\":\"hwf-metrics/1\"}\n{\"ev\":\"x\"}\n";
  invalid "row not an object" "{\"schema\":\"hwf-trace/1\"}\n[1]\n";
  invalid "blank line mid-file" "{\"schema\":\"hwf-metrics/1\"}\n{\"m\":\"x\"}\n\n{\"m\":\"y\"}\n";
  invalid "trailing garbage" "{\"schema\":\"hwf-metrics/1\"}\n{\"m\":\"x\"} x\n"

let test_lint_restart () =
  valid "lint header restarts a block"
    "{\"schema\":\"hwf-lint/1\"}\n{\"l\":\"x\"}\n{\"schema\":\"hwf-lint/1\"}\n{\"l\":\"y\"}\n";
  invalid "only lint blocks restart"
    "{\"schema\":\"hwf-trace/1\"}\n{\"ev\":\"x\"}\n{\"schema\":\"hwf-trace/1\"}\n"

let ckpt_head = "{\"schema\":\"hwf-ckpt/2\",\"campaign\":\"c\",\"cells\":2}\n"

let test_partial_tail () =
  valid "checkpoint partial final line"
    (ckpt_head ^ "{\"cell\":0,\"key\":\"a\",\"payload\":{\"runs\":1}}\n{\"cell\":1,\"key\":\"b\",\"pay");
  invalid "checkpoint partial line mid-file"
    (ckpt_head ^ "{\"cell\":1,\"key\":\"b\",\"pay\n{\"cell\":0,\"key\":\"a\",\"payload\":{\"runs\":1}}\n");
  invalid "trace partial final line" "{\"schema\":\"hwf-trace/1\"}\n{\"ev\":\"x\"}\n{\"ev\":\"y";
  invalid "checkpoint header without campaign"
    "{\"schema\":\"hwf-ckpt/2\",\"cells\":2}\n{\"cell\":0,\"key\":\"a\",\"payload\":{\"runs\":1}}\n";
  invalid "checkpoint of the retired string-payload schema"
    "{\"schema\":\"hwf-ckpt/1\",\"campaign\":\"c\",\"cells\":2}\n{\"cell\":0,\"key\":\"a\",\"payload\":\"p\"}\n"

let test_whole_file () =
  let doc ?(schema = Json.Schema.bench_sched) ?(host = [ ("host", Json.Obj []) ]) cells =
    Json.Obj
      ((("schema", Json.Str schema.Json.Schema.tag) :: host) @ [ ("cells", Json.List cells) ])
  in
  let row fields = Json.Obj (List.map (fun k -> (k, Json.Int 1)) fields) in
  valid "sched" (Json.pretty (doc [ row [ "case"; "strategy"; "runs"; "found" ] ]));
  invalid "sched without host"
    (Json.pretty (doc ~host:[] [ row [ "case"; "strategy"; "runs"; "found" ] ]));
  invalid "empty cells" (Json.pretty (doc []));
  invalid "cell lacks a field" (Json.pretty (doc [ row [ "case"; "strategy"; "runs" ] ]));
  invalid "cell not an object" (Json.pretty (doc [ Json.Int 1 ]));
  invalid "no schema" "{\n  \"cells\": [\n    {\"case\": \"a\"}\n  ]\n}\n";
  invalid "faults rows are subjects, not cells"
    (Json.pretty (doc ~schema:Json.Schema.bench_faults [ row [ "name" ] ]));
  invalid "broken JSON" "{\n  \"schema\": \"hwf-bench-sched/2\",\n  \"cells\": [\n "

let test_bench_engine_host () =
  let row =
    Json.Obj
      (List.map
         (fun k -> (k, Json.Int 1))
         [ "n"; "processors"; "observer"; "batched"; "statements"; "seconds"; "stmts_per_sec" ])
  in
  let doc extra =
    Json.pretty
      (Json.Obj
         ((("schema", Json.Str Json.Schema.bench_engine.tag) :: extra)
         @ [ ("cells", Json.List [ row ]) ]))
  in
  let host =
    Json.Obj [ ("nproc", Json.Int 2); ("ocaml", Json.Str "5.1.1"); ("mode", Json.Str "full") ]
  in
  valid "engine with host" (doc [ ("host", host) ]);
  invalid "engine without host" (doc []);
  invalid "engine without batched column"
    (Json.pretty
       (Json.Obj
          [
            ("schema", Json.Str Json.Schema.bench_engine.tag);
            ("host", host);
            ( "cells",
              Json.List
                [
                  Json.Obj
                    (List.map
                       (fun k -> (k, Json.Int 1))
                       [ "n"; "processors"; "observer"; "statements"; "seconds"; "stmts_per_sec" ]);
                ] );
          ]))

let test_bench_faults_par_host () =
  let doc (schema : Json.Schema.t) array fields extra =
    let row = Json.Obj (List.map (fun k -> (k, Json.Int 1)) fields) in
    Json.pretty
      (Json.Obj
         ((("schema", Json.Str schema.tag) :: extra) @ [ (array, Json.List [ row ]) ]))
  in
  let host =
    Json.Obj [ ("nproc", Json.Int 2); ("ocaml", Json.Str "5.1.1"); ("mode", Json.Str "full") ]
  in
  let faults =
    doc Json.Schema.bench_faults "subjects"
      [ "name"; "plans"; "passed"; "blocked"; "worst_own_steps"; "certified" ]
  in
  let par =
    doc Json.Schema.bench_par "cells"
      [ "name"; "units"; "par_seconds"; "seq_seconds"; "speedup"; "identical" ]
  in
  valid "faults with host" (faults [ ("host", host) ]);
  invalid "faults without host" (faults []);
  valid "par with host" (par [ ("host", host) ]);
  invalid "par without host" (par [])

(* ---- every export validates ---- *)

let test_goldens () =
  List.iter
    (fun f ->
      match Json.Schema.validate_file ("golden/" ^ f) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "golden/%s: %s" f e)
    [
      "fig3_trace.jsonl";
      "fig3_metrics.jsonl";
      "fig5_trace.jsonl";
      "fig7_trace.jsonl";
      "e19_trace.jsonl";
    ]

(* The Fig. 3 demo run of test_obs, exported every way the CLI can. *)
let test_fresh_exports () =
  let layout = [ (0, 1); (0, 1) ] in
  let config = Layout.to_config ~quantum:8 layout in
  let b = Scenarios.consensus ~name:"demo" ~impl:Scenarios.Fig3 ~quantum:8 ~layout in
  let r =
    Engine.run ~config ~policy:(Policy.round_robin ())
      (b.Scenarios.scenario.Explore.make ()).Explore.programs
  in
  valid "trace" (Hwf_obs.Jsonl.trace_to_string r.Engine.trace);
  valid "metrics" (Hwf_obs.Jsonl.metrics_to_string (Hwf_obs.Metrics.of_trace r.Engine.trace));
  valid "analyze"
    (Hwf_obs.Jsonl.races_to_string ~config (Hwf_obs.Races.of_trace r.Engine.trace));
  let lint =
    List.filter_map Registry.find [ "fig3"; "fig5" ]
    |> List.map (Hwf_lint.Lint.run ~budget:2)
  in
  valid "lint, two blocks" (Hwf_lint.Report.to_string lint);
  let path = Filename.temp_file "hwf_json_test" ".ckpt.jsonl" in
  let module Checkpoint = Hwf_resil.Checkpoint in
  let pass = Json.Obj [ ("verdict", Json.Str "pass"); ("worst", Json.Int 8) ] in
  (match
     Checkpoint.with_journal ~path ~resume:false
       ~campaign:(fun () -> "demo \"camp\"")
       ~cells:2
       ~key:(fun i -> Printf.sprintf "a\tb%d" i)
       ~encode:Fun.id
       ~decode:(fun _ v -> Some v)
       (fun t ->
         Checkpoint.cell t ~should_stop:(fun () -> false) 0 (fun () ->
             { Hwf_resil.Resil.outcome = Hwf_resil.Resil.Ok_cell pass; attempts = 1 }))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  (match Json.Schema.validate_file path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "checkpoint: %s" e);
  Sys.remove path

(* ---- codec ---- *)

let hostile = [ "quote\"back\\slash\ttab"; "nl\ncr\r"; "\001\031 ctl"; ""; "caf\xc3\xa9 /" ]

let test_round_trip () =
  let v =
    Json.Obj
      [
        ("strings", Json.List (List.map (fun s -> Json.Str s) hostile));
        ("n", Json.Int (-42));
        ("max", Json.Int max_int);
        ("x", Json.fixed 3 1.5);
        ("nested", Json.Obj [ ("b", Json.Bool false); ("z", Json.Null); ("e", Json.List []) ]);
      ]
  in
  List.iter
    (fun (label, s) ->
      match Json.of_string s with
      | Ok v' -> Util.checkb (label ^ " round trip") (v = v')
      | Error e -> Alcotest.failf "%s: %s" label e)
    [ ("compact", Json.to_string v); ("pretty", Json.pretty v) ];
  Util.check Alcotest.string "escaper" {|"quote\"back\\slash\ttab\u0001"|}
    (Json.to_string (Json.Str "quote\"back\\slash\ttab\001"));
  (match Json.of_string {|"\u0041\u00e9\ud83d\ude00\/"|} with
  | Ok (Json.Str s) -> Util.check Alcotest.string "\\u escapes" "A\xc3\xa9\xf0\x9f\x98\x80/" s
  | _ -> Alcotest.fail "\\u escapes");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "01"; "1."; "-"; "\"\\u12g4\""; "\"a\nb\""; "[1,]"; "{\"a\":1,}"; "tru"; "1 2" ]

let test_pretty_layout () =
  Util.check Alcotest.string "layout"
    "{\n\
    \  \"schema\": \"s\",\n\
    \  \"rows\": [\n\
    \    {\"a\": 1, \"b\": [1, 2]},\n\
    \    {\"a\": null}\n\
    \  ],\n\
    \  \"empty\": [\n\
    \  ],\n\
    \  \"cov\": {\"x\": 0.50}\n\
     }\n"
    (Json.pretty
       (Json.Obj
          [
            ("schema", Json.Str "s");
            ( "rows",
              Json.List
                [
                  Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Int 1; Json.Int 2 ]) ];
                  Json.Obj [ ("a", Json.fixed 1 Float.infinity) ];
                ] );
            ("empty", Json.List []);
            ("cov", Json.Obj [ ("x", Json.fixed 2 0.5) ]);
          ]))

let () =
  Alcotest.run "json"
    [
      ( "schema",
        [
          Alcotest.test_case "missing or unknown schema rejected" `Quick test_schema_tag;
          Alcotest.test_case "row without its discriminator rejected" `Quick test_discriminator;
          Alcotest.test_case "lint header restarts a block" `Quick test_lint_restart;
          Alcotest.test_case "partial final line for hwf-ckpt only" `Quick test_partial_tail;
          Alcotest.test_case "whole-file cells checked" `Quick test_whole_file;
          Alcotest.test_case "engine export needs host" `Quick test_bench_engine_host;
          Alcotest.test_case "faults and par exports need host" `Quick
            test_bench_faults_par_host;
        ] );
      ( "exports",
        [
          Alcotest.test_case "goldens validate" `Quick test_goldens;
          Alcotest.test_case "fresh exports validate" `Quick test_fresh_exports;
        ] );
      ( "codec",
        [
          Alcotest.test_case "parser round trip" `Quick test_round_trip;
          Alcotest.test_case "pretty layout" `Quick test_pretty_layout;
        ] );
    ]
