open Hwf_sim
open Hwf_core
open Hwf_adversary

(* Sec. 5 extensions: dynamic priorities and renaming. *)

let test_set_priority_changes_scheduling () =
  (* p0 starts low, raises itself to 2 between invocations; from then on
     it preempts p1. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let log = ref [] in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "a" (fun () -> Eff.local "s");
        Eff.set_priority 2;
        Eff.invocation "b" (fun () ->
            for _ = 1 to 3 do
              Eff.local "s";
              log := (0, snd (Eff.stamp ())) :: !log
            done));
      (fun () ->
        Eff.invocation "w" (fun () ->
            for _ = 1 to 6 do
              Eff.local "s";
              log := (1, snd (Eff.stamp ())) :: !log
            done));
    |]
  in
  (* config has 1 level; need 2 *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:2
      (Array.to_list config.Config.procs)
  in
  let r = Util.run ~config ~policy:(Stagger.max_interleave ()) bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  (* once p0's second invocation starts, it must run its 3 statements
     without p1 interleaving (it is higher priority now) *)
  let order = List.rev_map fst !log in
  let rec after_first_p0 = function
    | 0 :: rest -> rest
    | _ :: rest -> after_first_p0 rest
    | [] -> []
  in
  let tail = after_first_p0 order in
  let p0_block =
    let rec leading = function 0 :: rest -> 1 + leading rest | _ -> 0 in
    leading tail
  in
  Util.checkb "p0 high-priority block contiguous" (p0_block >= 2)

let test_set_priority_mid_invocation_rejected () =
  let config = Util.uni_config ~quantum:4 [ 1 ] in
  let config =
    Config.uniprocessor ~quantum:4 ~levels:2 (Array.to_list config.Config.procs)
  in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "bad" (fun () ->
            Eff.local "s";
            Eff.set_priority 2));
    |]
  in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Eff.set_priority: p1 cannot change priority mid-invocation")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_set_priority_mid_invocation_names_offender () =
  (* The error must name the process that performed the illegal change,
     not just the first process of the configuration. *)
  let config = Util.uni_config ~quantum:4 [ 1; 1 ] in
  let config =
    Config.uniprocessor ~quantum:4 ~levels:2 (Array.to_list config.Config.procs)
  in
  let bodies =
    [|
      (fun () -> Eff.invocation "ok" (fun () -> Eff.local "s"));
      (fun () ->
        Eff.invocation "bad" (fun () ->
            Eff.local "s";
            Eff.set_priority 2));
    |]
  in
  Alcotest.check_raises "names p2"
    (Invalid_argument "Eff.set_priority: p2 cannot change priority mid-invocation")
    (fun () -> ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_set_priority_legal_change_recorded () =
  (* A between-invocation change is legal, shows up as a Set_priority
     trace event, and the trace stays well-formed. *)
  let config = Util.uni_config ~quantum:4 [ 1 ] in
  let config =
    Config.uniprocessor ~quantum:4 ~levels:3 (Array.to_list config.Config.procs)
  in
  let bodies =
    [|
      (fun () ->
        Eff.invocation "a" (fun () -> Eff.local "s");
        Eff.set_priority 3;
        Eff.invocation "b" (fun () -> Eff.local "s"));
    |]
  in
  let r = Engine.run ~config ~policy:Policy.first bodies in
  Util.checkb "finished" (Array.for_all Fun.id r.finished);
  let changes =
    Trace.fold
      (fun acc ev ->
        match ev with Trace.Set_priority { pid; priority } -> (pid, priority) :: acc | _ -> acc)
      [] r.trace
  in
  Alcotest.(check (list (pair int int))) "one recorded change" [ (0, 3) ] changes;
  Util.checkb "well-formed" (Wellformed.is_well_formed r.trace)

let test_set_priority_range_check () =
  let config = Util.uni_config ~quantum:4 [ 1 ] in
  let bodies = [| (fun () -> Eff.set_priority 5) |] in
  Alcotest.check_raises "range"
    (Invalid_argument "Eff.set_priority: level out of range") (fun () ->
      ignore (Engine.run ~config ~policy:Policy.first bodies))

let test_wellformed_tracks_dynamic_priority () =
  (* A priority change makes previously legal interleavings illegal: the
     checker must judge statements against the current priority. *)
  let config =
    Config.uniprocessor ~quantum:4 ~levels:2
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:1 () ]
  in
  let t = Trace.create config in
  Trace.add t (Trace.Set_priority { pid = 0; priority = 2 });
  Trace.add t (Trace.Inv_begin { pid = 0; inv = 0; label = "hi" });
  Trace.add t (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t (Trace.Inv_begin { pid = 1; inv = 0; label = "lo" });
  Trace.add t (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  (match Wellformed.check t with
  | [ { axiom = `Priority; pid = 1; blame = 0; _ } ] -> ()
  | vs -> Alcotest.failf "expected 1 priority violation, got %d" (List.length vs));
  (* without the priority change the same trace is fine *)
  let t' = Trace.create config in
  Trace.add t' (Trace.Inv_begin { pid = 0; inv = 0; label = "hi" });
  Trace.add t' (Trace.Stmt { idx = 0; pid = 0; op = Op.local "s"; inv = 0; cost = 1 });
  Trace.add t' (Trace.Inv_begin { pid = 1; inv = 0; label = "lo" });
  Trace.add t' (Trace.Stmt { idx = 1; pid = 1; op = Op.local "s"; inv = 0; cost = 1 });
  Util.checkb "legal without the change" (Wellformed.is_well_formed t')

let test_consensus_with_dynamic_priorities () =
  (* Two rounds of Fig. 3 consensus; processes shuffle priorities between
     rounds. Agreement must hold in both rounds under exploration. *)
  let mk () =
    let o1 = Uni_consensus.make "c1" in
    let o2 = Uni_consensus.make "c2" in
    let outs = Array.make_matrix 2 2 (-1) in
    let programs =
      Array.init 2 (fun pid () ->
          Eff.invocation "r1" (fun () -> outs.(0).(pid) <- Uni_consensus.decide o1 pid);
          Eff.set_priority (if pid = 0 then 2 else 1);
          Eff.invocation "r2" (fun () ->
              outs.(1).(pid) <- Uni_consensus.decide o2 (10 + pid)))
    in
    let check (r : Engine.result) =
      if not (Array.for_all Fun.id r.finished) then Error "unfinished"
      else if outs.(0).(0) <> outs.(0).(1) then Error "round 1 disagreement"
      else if outs.(1).(0) <> outs.(1).(1) then Error "round 2 disagreement"
      else Ok ()
    in
    Explore.{ programs; check }
  in
  let config =
    Config.uniprocessor ~quantum:8 ~levels:2
      [ Proc.make ~pid:0 ~processor:0 ~priority:1 ();
        Proc.make ~pid:1 ~processor:0 ~priority:2 () ]
  in
  Util.expect_ok "dynamic priorities"
    (Explore.explore ~max_runs:500_000 Explore.{ name = "dyn"; config; make = mk })

let test_renaming_distinct () =
  let n = 4 in
  let config = Util.uni_config ~quantum:3000 (List.init n (fun _ -> 1)) in
  let make () =
    let r = Renaming.make "names" in
    let got = Array.make n 0 in
    let programs =
      Array.init n (fun pid () ->
          Eff.invocation "acquire" (fun () -> got.(pid) <- Renaming.acquire r ~pid))
    in
    let check (res : Engine.result) =
      if not (Array.for_all Fun.id res.finished) then Error "unfinished"
      else
        let sorted = Array.copy got in
        Array.sort compare sorted;
        let distinct = Array.to_list sorted |> List.sort_uniq compare in
        if List.length distinct <> n then
          Error (Fmt.str "duplicate names %a" Fmt.(Dump.array int) got)
        else if sorted.(n - 1) > n then
          Error (Fmt.str "name %d out of dense range 1..%d" sorted.(n - 1) n)
        else Ok ()
    in
    Explore.{ programs; check }
  in
  let scenario = Explore.{ name = "renaming"; config; make } in
  Util.expect_ok "renaming pb=2"
    (Explore.explore ~preemption_bound:2 ~max_runs:300_000 scenario);
  Util.expect_ok "renaming random" (Explore.sample ~strategy:Randsched.Naive
      ~runs:200 ~seed:3 scenario)

let test_renaming_mixed_priorities () =
  let config = Util.uni_config ~quantum:3000 [ 1; 2; 3 ] in
  let make () =
    let r = Renaming.make "names" in
    let got = Array.make 3 0 in
    let programs =
      Array.init 3 (fun pid () ->
          Eff.invocation "acquire" (fun () -> got.(pid) <- Renaming.acquire r ~pid))
    in
    let check (res : Engine.result) =
      if not (Array.for_all Fun.id res.finished) then Error "unfinished"
      else
        let sorted = List.sort compare (Array.to_list got) in
        if sorted = [ 1; 2; 3 ] then Ok ()
        else Error (Fmt.str "names %a" Fmt.(Dump.array int) got)
    in
    Explore.{ programs; check }
  in
  Util.expect_ok "renaming 3 levels"
    (Explore.explore ~preemption_bound:2 ~max_runs:300_000
       Explore.{ name = "ren3"; config; make })

let () =
  Alcotest.run "dynamic"
    [
      ( "priorities",
        [
          Alcotest.test_case "changes scheduling" `Quick test_set_priority_changes_scheduling;
          Alcotest.test_case "mid-invocation rejected" `Quick
            test_set_priority_mid_invocation_rejected;
          Alcotest.test_case "mid-invocation names offender" `Quick
            test_set_priority_mid_invocation_names_offender;
          Alcotest.test_case "legal change recorded" `Quick
            test_set_priority_legal_change_recorded;
          Alcotest.test_case "range check" `Quick test_set_priority_range_check;
          Alcotest.test_case "wellformed tracks changes" `Quick
            test_wellformed_tracks_dynamic_priority;
          Alcotest.test_case "consensus across changes" `Quick
            test_consensus_with_dynamic_priorities;
        ] );
      ( "renaming",
        [
          Alcotest.test_case "distinct dense names" `Slow test_renaming_distinct;
          Alcotest.test_case "mixed priorities" `Quick test_renaming_mixed_priorities;
        ] );
    ]
