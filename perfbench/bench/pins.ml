(* Expected exact outputs of one full round of each workload.

   explore-uni, explore-mp and sample-pct's verdicts do not depend on the
   seed, so their pins hold for every seed. certify-faults' chaos plans
   do, so its per-subject counts are pinned at the default seed (41) and
   at the held-out seed (7), which a later gain claim must also hold on.
   At any other seed every plan must still pass; that is checked through
   the failed count, not here. *)

let held_out_seed = 7

let subject ~name ~plans ~blocked =
  [
    ("faults." ^ name ^ ".plans", plans);
    ("faults." ^ name ^ ".passed", plans);
    ("faults." ^ name ^ ".blocked", blocked);
  ]

let faults ~fig5_blocked =
  subject ~name:"fig3" ~plans:111 ~blocked:0
  @ subject ~name:"fig3-time" ~plans:121 ~blocked:0
  @ subject ~name:"fig5" ~plans:367 ~blocked:fig5_blocked
  @ subject ~name:"fig7" ~plans:1607 ~blocked:0
  @ subject ~name:"universal" ~plans:109 ~blocked:0

(* (workload, seed or every seed, expected counters) *)
let pins =
  [
    ( "explore-uni",
      None,
      [
        ("adversary.engine_runs", 12186);
        ("adversary.verdict_runs", 12186);
        ("adversary.blocked_prefixes", 0);
        ("adversary.pruned_branches", 0);
        ("explore.exhaustive", 1);
      ] );
    (* Capped at 200 engine runs: not exhaustive, and recorded as such. *)
    ( "explore-mp",
      None,
      [
        ("adversary.engine_runs", 200);
        ("adversary.verdict_runs", 101);
        ("adversary.blocked_prefixes", 99);
        ("adversary.pruned_branches", 4851);
        ("explore.exhaustive", 0);
        ("oracle.rmw_nodes", 45);
        ("oracle.insensitive_nodes", 15);
        ("oracle.indep_pairs", 0);
        ("oracle.schedules", 4);
        ("oracle.swaps", 0);
      ] );
    ( "sample-pct",
      None,
      [ ("adversary.engine_runs", 250); ("adversary.verdict_runs", 250); ("sample.bugs", 0) ]
    );
    ("certify-faults", Some 41, faults ~fig5_blocked:260);
    ("certify-faults", Some held_out_seed, faults ~fig5_blocked:259);
  ]

let check ~workload ~seed round =
  List.concat_map
    (fun (w, s, expected) ->
      if w <> workload || (s <> None && s <> Some seed) then []
      else
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k round with
            | Some got when got = v -> None
            | Some got -> Some (Printf.sprintf "%s = %d, pinned %d" k got v)
            | None -> Some (Printf.sprintf "%s missing, pinned %d" k v))
          expected)
    pins
