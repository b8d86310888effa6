(* The happens-before race certifier: every known-racy corpus case must
   be flagged (with the expected variable), every known-clean case must
   come back empty, under more than one recording schedule — the
   verdict is a property of the workload, not of the interleaving the
   recorder happened to pick. Plus schema/determinism checks for the
   hwf-analyze/1 export. *)

open Hwf_sim
open Hwf_obs
module Corpus = Hwf_race_corpus.Corpus

let policies () = [ ("round-robin", Policy.round_robin ()); ("highest-pid", Policy.highest_pid) ]

let test_racy_flagged () =
  List.iter
    (fun (c : Corpus.case) ->
      List.iter
        (fun (pname, policy) ->
          let r = Corpus.analyze ~policy c in
          if not (Corpus.verdict_matches c r) then
            Alcotest.failf "%s under %s: expected a race on %s, got %a" c.Corpus.name
              pname
              (Option.value ~default:"?" c.Corpus.var)
              Races.pp_report r)
        (policies ()))
    Corpus.racy_cases

let test_clean_pass () =
  List.iter
    (fun (c : Corpus.case) ->
      List.iter
        (fun (pname, policy) ->
          let r = Corpus.analyze ~policy c in
          if Races.racy r then
            Alcotest.failf "%s under %s: expected clean, got %a" c.Corpus.name pname
              Races.pp_report r)
        (policies ()))
    Corpus.clean_cases

(* RMW-RMW pairs never race, including across kinds: synchronization is
   per variable, not per kind. *)
let test_rmw_rmw_synchronizes () =
  let config = (List.hd Corpus.clean_cases).Corpus.config in
  let make () =
    let v = ref 0 in
    Array.init 2 (fun pid () ->
        Eff.invocation "mix" (fun () ->
            Eff.step (Op.rmw ~var:"mix.v" ~kind:(if pid = 0 then "F&A" else "C&S"));
            incr v))
  in
  let r = Engine.run ~step_limit:1_000 ~config ~policy:(Policy.round_robin ()) (make ()) in
  let report = Races.of_trace r.Engine.trace in
  Alcotest.(check bool) "no race" false (Races.racy report)

(* Read-read sharing is not a conflict. *)
let test_read_read_clean () =
  let config = (List.hd Corpus.clean_cases).Corpus.config in
  let make () =
    let x = Shared.make "rr2.x" 42 in
    Array.init 2 (fun _ () ->
        Eff.invocation "load" (fun () -> ignore (Shared.read x)))
  in
  let r = Engine.run ~step_limit:1_000 ~config ~policy:(Policy.round_robin ()) (make ()) in
  let report = Races.of_trace r.Engine.trace in
  Alcotest.(check bool) "no race" false (Races.racy report)

let test_jsonl_shape () =
  let c = List.hd Corpus.racy_cases in
  let r = Corpus.analyze c in
  let out = Jsonl.races_to_string ~config:c.Corpus.config r in
  let lines = String.split_on_char '\n' (String.trim out) in
  (match lines with
  | header :: _ ->
    let expect = Printf.sprintf "\"schema\":\"%s\"" Json.Schema.analyze.tag in
    if
      not
        (String.length header >= String.length expect
        && String.sub header 1 (String.length expect) = expect)
    then Alcotest.failf "bad header: %s" header
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check int) "line count" (Races.count r + 2) (List.length lines);
  (* Byte determinism: re-recording and re-exporting gives equal bytes. *)
  let out2 = Jsonl.races_to_string ~config:c.Corpus.config (Corpus.analyze c) in
  Alcotest.(check string) "deterministic bytes" out out2

let () =
  Alcotest.run "races"
    [
      ( "corpus",
        [
          Alcotest.test_case "racy cases flagged" `Quick test_racy_flagged;
          Alcotest.test_case "clean cases pass" `Quick test_clean_pass;
        ] );
      ( "hb",
        [
          Alcotest.test_case "rmw-rmw synchronizes" `Quick test_rmw_rmw_synchronizes;
          Alcotest.test_case "read-read clean" `Quick test_read_read_clean;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "hwf-analyze/1 shape" `Quick test_jsonl_shape ] );
    ]
