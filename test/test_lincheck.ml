open Hwf_check

(* Register spec: Set v / Get. *)
let reg_spec =
  Lincheck.make_spec ~init:0 ~apply:(fun s op ->
      match op with `Set v -> (v, 0) | `Get -> (s, s))

(* Hand-built uniprocessor histories: everything on processor 0, where
   the per-processor timestamp order is the classical real-time order. *)
let e pid op result t0 t1 = Hist.{ pid; op; result; proc = 0; t0; t1 }

let ok name r =
  match r with Ok () -> () | Error m -> Alcotest.failf "%s: %s" name m

let bad name r =
  match r with Error _ -> () | Ok () -> Alcotest.failf "%s: accepted" name

let test_empty () = ok "empty" (Lincheck.check reg_spec [])

let test_sequential_valid () =
  ok "seq"
    (Lincheck.check reg_spec
       [ e 0 (`Set 5) 0 0 2; e 1 `Get 5 3 4; e 0 `Get 5 5 6 ])

let test_sequential_invalid () =
  bad "stale read after set"
    (Lincheck.check reg_spec [ e 0 (`Set 5) 0 0 2; e 1 `Get 0 3 4 ])

let test_concurrent_reorder () =
  (* Overlapping Set(7) and Get -> 7 is fine even though Get started first. *)
  ok "overlap reorder"
    (Lincheck.check reg_spec [ e 0 `Get 7 0 10; e 1 (`Set 7) 0 1 9 ])

let test_realtime_respected () =
  (* Get returning the old value after a Set fully completed is invalid. *)
  bad "realtime"
    (Lincheck.check reg_spec
       [ e 0 (`Set 1) 0 0 1; e 1 (`Set 2) 0 2 3; e 2 `Get 1 4 5 ])

let test_two_writers_read_order () =
  (* Reads overlapping two concurrent writes may observe them in one
     consistent order... *)
  let h =
    [
      e 0 (`Set 1) 0 0 20;
      e 1 (`Set 2) 0 0 20;
      e 2 `Get 1 5 6;
      e 2 `Get 2 7 8;
    ]
  in
  ok "interleaved order exists" (Lincheck.check reg_spec h);
  (* ... but not flip back and forth. *)
  let h_bad = h @ [ e 2 `Get 1 9 10 ] in
  bad "flip-flop" (Lincheck.check reg_spec h_bad);
  (* And once both writes have completed, later reads must agree on one
     final value. *)
  let h_fixed =
    [ e 0 (`Set 1) 0 0 10; e 1 (`Set 2) 0 0 10; e 2 `Get 1 11 12; e 2 `Get 2 13 14 ]
  in
  bad "state cannot change after both writes completed" (Lincheck.check reg_spec h_fixed)

let cas_spec =
  Lincheck.make_spec ~init:0 ~apply:(fun s op ->
      match op with
      | `Cas (x, y) -> if s = x then (y, true) else (s, false)
      | `Get -> (s, s = 1))

let test_cas_history () =
  ok "two cas, one wins"
    (Lincheck.check
       (Lincheck.make_spec ~init:0 ~apply:(fun s op ->
            match op with `Cas (x, y) -> if s = x then (y, true) else (s, false)))
       [ e 0 (`Cas (0, 1)) true 0 5; e 1 (`Cas (0, 2)) false 0 5 ]);
  bad "both cannot win"
    (Lincheck.check
       (Lincheck.make_spec ~init:0 ~apply:(fun s op ->
            match op with `Cas (x, y) -> if s = x then (y, true) else (s, false)))
       [ e 0 (`Cas (0, 1)) true 0 5; e 1 (`Cas (0, 2)) true 0 5 ]);
  ignore cas_spec

let test_too_long () =
  let h = List.init 63 (fun i -> e 0 `Get 0 (2 * i) ((2 * i) + 1)) in
  bad "63 ops rejected" (Lincheck.check reg_spec h)

let test_closure_bearing_spec_state () =
  (* Regression: the search memoizes on (done_mask, state) with a
     structural Hashtbl; a state embedding a closure raised
     Invalid_argument "compare: functional value" as soon as two
     distinct closures with equal environments collided in a bucket.
     The checker must degrade to an unmemoized search instead. *)
  let mk v () = v in
  let spec =
    Lincheck.make_spec ~init:(0, mk 0) ~apply:(fun (v, _) op ->
        match op with
        | `Get -> ((v, mk v), v)
        | `Set x -> ((x, mk x), v))
  in
  (* Impossible read forces full backtracking: the {Get, Get} mask is
     reached along both orders with structurally equal-but-distinct
     closure states — the pre-fix crash. *)
  bad "closure spec, impossible read"
    (Lincheck.check spec [ e 0 `Get 0 0 10; e 1 `Get 0 0 10; e 2 `Get 42 0 10 ]);
  ok "closure spec, valid history"
    (Lincheck.check spec [ e 0 (`Set 5) 0 0 2; e 1 `Get 5 3 4 ])

let test_sequential_consistency_weaker () =
  (* The canonical separator: a stale read of another process's
     completed write. SC may order the read before the write (no
     program-order constraint across processes); linearizability's
     real-time order forbids it. *)
  let h = [ e 0 (`Set 1) 0 0 1; e 1 `Get 0 2 3 ] in
  bad "not linearizable" (Lincheck.check reg_spec h);
  ok "but sequentially consistent" (Lincheck.check_sequential_consistency reg_spec h);
  (* SC still requires program order: a process contradicting itself
     fails both. *)
  let h_bad = [ e 0 (`Set 5) 0 0 1; e 0 `Get 0 2 3 ] in
  bad "violates program order" (Lincheck.check_sequential_consistency reg_spec h_bad);
  (* and every linearizable history is SC *)
  let h_lin = [ e 0 (`Set 5) 0 0 2; e 1 `Get 5 3 4 ] in
  ok "lin" (Lincheck.check reg_spec h_lin);
  ok "lin implies sc" (Lincheck.check_sequential_consistency reg_spec h_lin)

let test_hist_recorder () =
  (* Hist.wrap timestamps around statements. *)
  let open Hwf_sim in
  let config = Util.uni_config ~quantum:10 [ 1 ] in
  let h = Hist.create () in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "op" (fun () ->
            ignore
              (Hist.wrap h ~pid:0 `Op (fun () ->
                   Eff.local "a";
                   Eff.local "b";
                   42))));
    |]
  in
  ignore (Util.run ~config ~policy:Policy.first bodies);
  match Hist.entries h with
  | [ { pid = 0; op = `Op; result = 42; proc = 0; t0 = 0; t1 = 2 } ] -> ()
  | _ -> Alcotest.fail "unexpected history"

let test_pending_ops () =
  (* A crashed writer's Set may or may not have taken effect. *)
  let pend = [ (0, `Set 9, 0, 0) ] in
  ok "pending set took effect"
    (Lincheck.check_with_pending reg_spec [ e 1 `Get 9 5 6 ] ~pending:pend);
  ok "pending set did not take effect"
    (Lincheck.check_with_pending reg_spec [ e 1 `Get 0 5 6 ] ~pending:pend);
  (* One pending write cannot explain a value flipping back. *)
  bad "cannot flip back"
    (Lincheck.check_with_pending reg_spec
       [ e 1 `Get 9 5 6; e 1 `Get 0 7 8 ]
       ~pending:pend);
  ok "0 then 9 is one linearization"
    (Lincheck.check_with_pending reg_spec
       [ e 1 `Get 0 5 6; e 1 `Get 9 7 8 ]
       ~pending:pend);
  (* Real time still binds: a pending op cannot take effect before an
     operation that completed before its t0. *)
  bad "pending cannot linearize before its start"
    (Lincheck.check_with_pending reg_spec [ e 1 `Get 9 0 1 ]
       ~pending:[ (0, `Set 9, 0, 5) ]);
  (* With no pending ops it degenerates to check. *)
  ok "no pending = check"
    (Lincheck.check_with_pending reg_spec [ e 0 (`Set 5) 0 0 2; e 1 `Get 5 3 4 ] ~pending:[])

let test_hist_pending_recording () =
  (* A process halted mid-operation leaves the op in Hist.pending. *)
  let open Hwf_sim in
  let config = Util.uni_config ~quantum:10 [ 1; 1 ] in
  let h = Hist.create () in
  let bodies =
    Array.init 2 (fun pid () ->
        Eff.invocation "op" (fun () ->
            ignore
              (Hist.wrap h ~pid (`Set pid) (fun () ->
                   Eff.local "a";
                   Eff.local "b";
                   0))))
  in
  let r =
    Engine.run ~crashes:[ (1, 1) ] ~config ~policy:(Policy.round_robin ()) bodies
  in
  Util.checkb "p2 halted" r.halted.(1);
  (match Hist.entries h with
  | [ { pid = 0; op = `Set 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly p1's completed op");
  match Hist.pending h with
  | [ (1, `Set 1, _, _) ] -> ()
  | _ -> Alcotest.fail "expected p2's op pending"

(* Property: any genuinely sequential history replayed through its own
   spec is accepted. *)
let prop_sequential_always_ok =
  Util.qtest ~count:200 "sequential histories accepted"
    QCheck2.Gen.(list_size (int_range 0 12) (int_range 0 30))
    (fun writes ->
      let _, entries =
        List.fold_left
          (fun (t, acc) v ->
            (t + 2, e 0 (`Set v) 0 t (t + 1) :: e 0 `Get v (t + 10_000) (t + 10_001) :: acc))
          (0, []) writes
      in
      (* interleave gets after all sets to keep it simple and valid *)
      let sets = List.filter (fun x -> x.Hist.t0 < 10_000) entries in
      let final = match writes with [] -> None | l -> Some (List.nth l (List.length l - 1)) in
      let h =
        match final with
        | None -> sets
        | Some v -> e 1 `Get v 9_000 9_001 :: sets
      in
      Lincheck.check reg_spec h = Ok ())

let () =
  Alcotest.run "lincheck"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "sequential valid" `Quick test_sequential_valid;
          Alcotest.test_case "sequential invalid" `Quick test_sequential_invalid;
          Alcotest.test_case "concurrent reorder" `Quick test_concurrent_reorder;
          Alcotest.test_case "realtime respected" `Quick test_realtime_respected;
          Alcotest.test_case "two writers" `Quick test_two_writers_read_order;
          Alcotest.test_case "cas history" `Quick test_cas_history;
          Alcotest.test_case "too long" `Quick test_too_long;
          Alcotest.test_case "closure-bearing spec state" `Quick
            test_closure_bearing_spec_state;
          Alcotest.test_case "SC strictly weaker" `Quick test_sequential_consistency_weaker;
          Alcotest.test_case "hist recorder" `Quick test_hist_recorder;
          Alcotest.test_case "pending ops" `Quick test_pending_ops;
          Alcotest.test_case "hist pending recording" `Quick test_hist_pending_recording;
        ] );
      ("props", [ prop_sequential_always_ok ]);
    ]
