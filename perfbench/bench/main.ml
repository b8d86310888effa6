(* perfbench: the campaign benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Runs one workload on one domain: times its set-up, then cycles
   through its slices (fixed, complete units of campaign work) for
   [--seconds] seconds and reports throughput from the median slice time
   of each group, because the host's speed drifts in phases of seconds
   to minutes. Every slice's exact outputs are compared with the first
   slice of its group and with the pins for the seed. With [--trace 1]
   every other slice runs with the layer wrappers of workloads.ml and
   the per-layer metrics are reported instead. The last line of standard
   output is one JSON object; the exit code is 0 only if every output
   was correct. *)

let default_seed = 41
let min_rounds = 3

(* Hard stop for the measurement window, whatever [--seconds] says. *)
let max_window_s = 120.0

let secs ns = float_of_int ns *. 1e-9

let median = Layers.median

(* A fixed kernel in the benchmark's own code: a dependent walk through a
   random cyclic permutation of 32 MB. Its time is the memory latency of
   the shared last-level cache, where the host's slow phases (other
   tenants' traffic) hit hardest; a fixed integer loop barely moves in
   them. Built on first use, so only traced runs pay for it. *)
let ref_kernel =
  let perm =
    lazy
      (let n = 1 lsl 22 in
       let a = Array.init n Fun.id in
       let st = Random.State.make [| 41 |] in
       (* Sattolo's shuffle: one cycle through every slot. *)
       for i = n - 1 downto 1 do
         let j = Random.State.int st i in
         let t = a.(i) in
         a.(i) <- a.(j);
         a.(j) <- t
       done;
       a)
  in
  fun () ->
    let a = Lazy.force perm in
    let p = ref 0 in
    for _ = 1 to 100_000 do
      p := Array.unsafe_get a !p
    done;
    ignore (Sys.opaque_identity !p)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
      else scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Words allocated so far. The minor-heap counter is only settled by a
   minor collection, so one is forced first (outside any timed span). *)
let alloc_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---- result line ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

(* ---- the run ---- *)

type group_log = {
  mutable plain : float list;
  mutable traced : float list;
  mutable first : Workloads.slice option;
  mutable stmts : int option;  (** Per traced slice. *)
  mutable alloc : float list;  (** Words allocated per plain slice. *)
  mutable minor : int;
  mutable major : int;
}

let run (w : Workloads.t) ~seed ~seconds ~traced =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Spans.reset ();
  (* Set-up is timed [setup_reps] times, spread evenly over the window
     so its median sees the same host phases as the slices; the first
     set-up runs before the first slice, as a CLI user pays it. *)
  let setup_times = ref [] in
  let setup () =
    let t0 = Spans.now () in
    let p = ref (w.setup ~seed ~traced) in
    for _ = 2 to w.setup_batch do
      p := w.setup ~seed ~traced
    done;
    setup_times := (secs (Spans.now () - t0) /. float_of_int w.setup_batch) :: !setup_times;
    !p
  in
  let p = setup () in
  let logs =
    Array.init p.groups (fun _ ->
        {
          plain = [];
          traced = [];
          first = None;
          stmts = None;
          alloc = [];
          minor = 0;
          major = 0;
        })
  in
  let attempted = ref 0 and failed = ref 0 in
  let kernel = ref [] in
  let traced_wall = ref 0 and traced_makes = ref 0 in
  let slice ~traced g =
    let log = logs.(g) in
    let stmts0 = !Workloads.stmts in
    let a0 = alloc_words () in
    let gc0 = Gc.quick_stat () in
    let t0 = Spans.now () in
    let r =
      try
        Some
          (if traced then
             Spans.with_span Spans.Slice (fun () ->
                 let r = p.slice ~traced:true g in
                 Workloads.close_gap Spans.Blocked;
                 r)
           else p.slice ~traced:false g)
      with e ->
        problem "group %d: harness error: %s" g (Printexc.to_string e);
        None
    in
    let dt = Spans.now () - t0 in
    let gc1 = Gc.quick_stat () in
    let a1 = alloc_words () in
    match r with
    | None -> incr failed
    | Some r ->
      attempted := !attempted + r.schedules;
      failed := !failed + r.failed;
      if r.failed > 0 then problem "group %d: %d failed schedules" g r.failed;
      (match log.first with
      | None -> log.first <- Some r
      | Some f ->
        if f.counters <> r.counters || f.schedules <> r.schedules then
          problem "group %d: slice outputs differ from the first slice" g);
      if traced then begin
        log.traced <- secs dt :: log.traced;
        traced_wall := !traced_wall + dt;
        traced_makes := !traced_makes + r.makes;
        let stmts = !Workloads.stmts - stmts0 in
        match log.stmts with
        | None -> log.stmts <- Some stmts
        | Some s -> if s <> stmts then problem "group %d: statement count differs" g
      end
      else begin
        log.plain <- secs dt :: log.plain;
        log.alloc <- (a1 -. a0) :: log.alloc;
        log.minor <- gc1.minor_collections - gc0.minor_collections;
        log.major <- gc1.major_collections - gc0.major_collections
      end
  in
  let start = Spans.now () in
  let window = int_of_float (seconds *. 1e9) in
  let deadline = start + window in
  let hard_stop = start + int_of_float (max_window_s *. 1e9) in
  let setup_due () =
    let k = List.length !setup_times in
    k < w.setup_reps && Spans.now () - start >= k * window / w.setup_reps
  in
  (* Slices cycle through the groups; the window closes at the first
     slice boundary past the deadline once every group has run
     [min_rounds] times. *)
  let slices = ref 0 in
  (* Peak RSS is read after a fixed amount of work, set-up and
     [min_rounds] rounds: it keeps growing with every round (memory
     outside the OCaml heap), so a reading at exit would depend on how
     many slices the host's speed allowed. *)
  let rss = ref nan in
  while
    (!slices < min_rounds * p.groups || Spans.now () < deadline)
    && Spans.now () < hard_stop
  do
    let g = !slices mod p.groups in
    if setup_due () then ignore (setup ());
    if traced then begin
      let k0 = Spans.now () in
      ref_kernel ();
      kernel := (secs (Spans.now () - k0) *. 1e3) :: !kernel
    end;
    slice ~traced:false g;
    if traced then slice ~traced:true g;
    incr slices;
    if !slices = min_rounds * p.groups then rss := peak_rss_mb ()
  done;
  while List.length !setup_times < w.setup_reps do
    ignore (setup ())
  done;
  let rounds = !slices / p.groups in
  if rounds < min_rounds then problem "only %d rounds in the window" rounds;
  (* Exact outputs of one full round (all groups), for the pins. *)
  let round =
    Array.fold_left
      (fun acc log ->
        match log.first with
        | None -> acc
        | Some r ->
          List.fold_left
            (fun acc (k, v) ->
              let prev = Option.value ~default:0 (List.assoc_opt k acc) in
              (k, prev + v) :: List.remove_assoc k acc)
            acc r.counters)
      [] logs
  in
  let round = List.sort compare round in
  List.iter (fun m -> problem "%s" m) (Pins.check ~workload:w.name ~seed round);
  let round_schedules =
    Array.fold_left
      (fun acc log -> acc + match log.first with Some r -> r.schedules | None -> 0)
      0 logs
  in
  let sum_groups f = Array.fold_left (fun acc log -> acc +. f log) 0.0 logs in
  let round_plain = sum_groups (fun l -> median l.plain) in
  let setup_s = median !setup_times in
  Printf.eprintf "%s seed=%d on %d cpus, OCaml %s: %d rounds, setup %.6g s, round %.4f s (%d schedules)%s\n"
    w.name seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version rounds setup_s round_plain round_schedules
    (if traced then Printf.sprintf ", ref kernel %.3f ms" (median !kernel) else "");
  List.iter (fun (k, v) -> Printf.eprintf "  %s = %d\n" k v) round;
  Array.iteri
    (fun g l ->
      if List.exists (fun a -> a <> List.hd l.alloc) l.alloc then
        Printf.eprintf "warning: group %d allocations differ across slices: %s\n" g
          (String.concat " " (List.rev_map (Printf.sprintf "%.0f") l.alloc)))
    logs;
  let metrics =
    if not traced then
      [
        ("setup_s", "s", setup_s);
        ("schedules_per_s", "1/s", float_of_int round_schedules /. round_plain);
        ("peak_rss_mb", "MB", !rss);
      ]
    else
      let layer_problems, metrics =
        Layers.metrics ~workload:w.name ~round ~round_schedules
          ~traced_wall:(secs !traced_wall) ~round_plain
          ~round_traced:(sum_groups (fun l -> median l.traced))
          ~stmts:(sum_groups (fun l -> float_of_int (Option.value ~default:0 l.stmts)))
          ~traced_makes:!traced_makes
          ~alloc:(sum_groups (fun l -> median l.alloc))
          ~minor:(sum_groups (fun l -> float_of_int l.minor))
          ~major:(sum_groups (fun l -> float_of_int l.major))
          ~kernel_ms:(median !kernel)
      in
      List.iter (fun m -> problem "%s" m) layer_problems;
      metrics
  in
  let metrics =
    List.map
      (fun (name, unit, v) ->
        if Float.is_finite v then (name, unit, v)
        else begin
          problem "metric %s is not a number" name;
          (name, unit, 0.0)
        end)
      metrics
  in
  let problems = List.rev !problems in
  List.iter (fun s -> Printf.eprintf "MISMATCH: %s\n" s) problems;
  let correct = problems = [] && !failed = 0 in
  if traced then begin
    (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/_out/spans-%s-%d.jsonl" w.name seed in
    try Spans.write ~subject_name:Layers.subject_name path
    with Sys_error m -> Printf.eprintf "spans not written: %s\n" m
  end;
  print_result ~correct ~attempted:!attempted ~failed:!failed metrics;
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 41)");
      ("--seconds", Arg.Set_float seconds, "S measurement window in seconds");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Workloads.find !workload with
  | None ->
    Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
