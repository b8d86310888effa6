(* Per-layer metrics of the traced run, from the span aggregates of
   spans.ml and the exact outputs of one round.

   The shares decompose the traced wall time W: the slices' wall time
   minus the Wellformed re-timing, which is extra work done only to
   measure the pass the search runs internally (spans.ml excludes it
   from every enclosing span). Where the engine is reached through
   [Explore.sample ?runner] its time is exact; elsewhere it is the run
   gap (make returning to the verdict entered) minus the Wellformed
   re-timing. Whatever no layer span covers is the search's own time. *)

open Spans

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let subject_name k = List.nth Workloads.subject_names k

let metrics ~workload ~round ~round_schedules ~traced_wall ~round_plain ~round_traced
    ~stmts ~traced_makes ~alloc ~minor ~major ~kernel_ms =
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k round)) in
  let faults field =
    List.fold_left
      (fun acc n -> acc +. get ("faults." ^ n ^ "." ^ field))
      0.0 Workloads.subject_names
  in
  let ns k = float_of_int k in
  let per_call k = if count_of k = 0 then 0.0 else ns (self_of k) /. ns (count_of k) in
  let wf = ns (total_of Wellformed) in
  let w = (traced_wall *. 1e9) -. wf in
  let exact_engine = count_of Engine > 0 in
  let gap = ns (self_of Gap) -. wf in
  let engine = if exact_engine then ns (self_of Engine) else gap in
  let policy = ns (self_of Policy_decide + self_of Policy_make) in
  let subjects_self =
    List.fold_left
      (fun acc k -> acc + self_of (Subject k))
      0
      (List.init (List.length Workloads.subject_names) Fun.id)
  in
  let search_self =
    ns (self_of Slice + subjects_self) +. if exact_engine then gap else 0.0
  in
  let parts =
    [
      ns (self_of Make);
      engine;
      wf;
      ns (self_of Check);
      policy;
      ns (self_of Blocked);
      search_self;
    ]
  in
  let share x = x /. w in
  let certify = workload = "certify-faults" in
  let engine_runs = if certify then faults "plans" else get "adversary.engine_runs" in
  let verdict_runs = if certify then faults "plans" else get "adversary.verdict_runs" in
  let all_stmts = ns !Workloads.stmts and all_events = ns !Workloads.events in
  let median0 l = if l = [] then 0.0 else median l in
  let problems =
    if count_of Make = traced_makes then []
    else
      [ Printf.sprintf "traced runs: %d make spans, %d makes" (count_of Make) traced_makes ]
  in
  ( problems,
    [
      ("workload.make_us", "us", per_call Make /. 1e3);
      ("sim.stmts", "count", stmts);
      ("sim.engine_share", "share", share engine);
      ("sim.engine_ns_per_stmt", "ns", if all_stmts > 0.0 then engine /. all_stmts else 0.0);
      ("sim.policy_ns_per_decision", "ns", per_call Policy_decide);
      ("sim.policy_share", "share", share policy);
      ("sim.wellformed_share", "share", share wf);
      ( "sim.wellformed_ns_per_event",
        "ns",
        if all_events > 0.0 then wf /. all_events else 0.0 );
      ("adversary.engine_runs", "count", engine_runs);
      ("adversary.verdict_runs", "count", verdict_runs);
      ("adversary.blocked_prefixes", "count", get "adversary.blocked_prefixes");
      ("adversary.pruned_branches", "count", get "adversary.pruned_branches");
      ("adversary.useful_ratio", "ratio", verdict_runs /. engine_runs);
      ("adversary.blocked_share", "share", share (ns (self_of Blocked)));
      ("adversary.search_self_share", "share", share search_self);
      ("check.verdict_share", "share", share (ns (self_of Check)));
      ("check.verdict_us", "us", per_call Check /. 1e3);
      ("faults.plans", "count", faults "plans");
      ("faults.passed", "count", faults "passed");
      ("faults.blocked", "count", faults "blocked");
    ]
    @ List.mapi
        (fun k n -> ("faults.subject_share." ^ n, "share", share (ns (total_of (Subject k)))))
        Workloads.subject_names
    @ [
        ("faults.policy_share", "share", if certify then share policy else 0.0);
        ("lint.battery_s", "s", median0 !Workloads.lint_s);
        ("lint.certify_s", "s", median0 !Workloads.indep_s);
        ( "gc.alloc_words_per_schedule",
          "words",
          alloc /. float_of_int round_schedules );
        ("gc.minor_collections", "count", minor);
        ("gc.major_collections", "count", major);
        ("bench.share_sum", "ratio", share (List.fold_left ( +. ) 0.0 parts));
        ("bench.trace_overhead", "ratio", (round_traced /. round_plain) -. 1.0);
        ("host.ref_kernel_ms", "ms", kernel_ms);
      ] )
