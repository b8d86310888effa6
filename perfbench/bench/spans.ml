(* In-memory span recorder for the traced run.

   Spans are opened and closed from the benchmark's own wrappers around
   calls into the program's layers, on one domain, strictly nested.
   Every span is aggregated per kind (count, inclusive and self time);
   the first [cap] spans are also kept individually and written out as
   JSONL when the run ends (with raw clock readings). A span's self time
   is its duration minus the durations of the spans nested directly
   inside it. *)

type kind =
  | Slice  (** One complete campaign slice (the root). *)
  | Subject of int  (** One [Certify.certify] call, by subject index. *)
  | Make  (** [scenario.make] / [subject.make]. *)
  | Gap
      (** From [make] returning to the verdict being entered: the engine
          run plus the search's own per-run work. *)
  | Blocked
      (** A gap that never reached a verdict: the run was discarded
          (sleep-set blocked prefix, or the sampler's pilot run). *)
  | Check  (** [instance.check]. *)
  | Wellformed
      (** [Wellformed.check] re-timed on the verdict's trace: an estimate
          of the pass the search runs inside the gap. It is excluded
          from the time of every enclosing span. *)
  | Engine  (** An engine run through [Explore.sample ?runner]. *)
  | Policy_make  (** [subject.policy ()]. *)
  | Policy_decide  (** One decision of a policy prepared by [Policy.prepare]. *)
  | Lint  (** [Lint.run]. *)
  | Indep  (** [Indep.certified_relation]. *)

let max_subjects = 16
let n_kinds = 11 + max_subjects

let index = function
  | Slice -> 0
  | Make -> 1
  | Gap -> 2
  | Blocked -> 3
  | Check -> 4
  | Wellformed -> 5
  | Engine -> 6
  | Policy_make -> 7
  | Policy_decide -> 8
  | Lint -> 9
  | Indep -> 10
  | Subject i ->
    if i < 0 || i >= max_subjects then invalid_arg "Spans.index: subject";
    11 + i

let name_of_index ~subject_name i =
  match i with
  | 0 -> "slice"
  | 1 -> "workload.make"
  | 2 -> "run.gap"
  | 3 -> "run.blocked"
  | 4 -> "check.verdict"
  | 5 -> "sim.wellformed"
  | 6 -> "sim.engine"
  | 7 -> "faults.policy_make"
  | 8 -> "sim.policy_decide"
  | 9 -> "lint.run"
  | 10 -> "lint.certify"
  | i -> "faults.subject." ^ subject_name (i - 11)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Aggregates, by kind index. *)
let count = Array.make n_kinds 0
let total = Array.make n_kinds 0
let self = Array.make n_kinds 0

(* The stack of open spans. *)
let max_depth = 64
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth (-1)
let depth = ref 0

(* Individually kept spans. *)
let cap = 200_000
let sp_kind = Array.make cap 0
let sp_start = Array.make cap 0
let sp_stop = Array.make cap 0
let sp_parent = Array.make cap (-1)
let stored = ref 0
let dropped = ref 0

let reset () =
  Array.fill count 0 n_kinds 0;
  Array.fill total 0 n_kinds 0;
  Array.fill self 0 n_kinds 0;
  depth := 0;
  stored := 0;
  dropped := 0

let enter k =
  let d = !depth in
  if d >= max_depth then failwith "Spans.enter: nesting too deep";
  let k = index k in
  let id =
    (* Decisions are too many to keep one by one; they are aggregated. *)
    if k = index Policy_decide then -1
    else if !stored < cap then begin
      let id = !stored in
      incr stored;
      sp_kind.(id) <- k;
      sp_parent.(id) <- (if d > 0 then st_id.(d - 1) else -1);
      id
    end
    else begin
      incr dropped;
      -1
    end
  in
  st_kind.(d) <- k;
  st_child.(d) <- 0;
  st_id.(d) <- id;
  depth := d + 1;
  let t = now () in
  st_start.(d) <- t;
  if id >= 0 then sp_start.(id) <- t

(* Close the innermost span, optionally re-labelling it (a gap learns
   whether it was blocked only when it ends). *)
let leave_as k =
  let t = now () in
  let d = !depth - 1 in
  if d < 0 then failwith "Spans.leave: no open span";
  depth := d;
  let k = match k with Some k -> index k | None -> st_kind.(d) in
  let dur = t - st_start.(d) in
  count.(k) <- count.(k) + 1;
  total.(k) <- total.(k) + dur;
  self.(k) <- self.(k) + dur - st_child.(d);
  if k = index Wellformed then
    (* Extra work done only to measure: the enclosing spans do not see
       it, as if their clocks had stopped. *)
    for i = 0 to d - 1 do
      st_start.(i) <- st_start.(i) + dur
    done
  else if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let id = st_id.(d) in
  if id >= 0 then begin
    sp_kind.(id) <- k;
    sp_stop.(id) <- t
  end

let leave () = leave_as None

let top_is k = !depth > 0 && st_kind.(!depth - 1) = index k

let with_span k f =
  enter k;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let count_of k = count.(index k)
let total_of k = total.(index k)
let self_of k = self.(index k)

let write ~subject_name path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"schema\":\"perfbench-spans/1\",\"stored\":%d,\"dropped\":%d}\n" !stored
    !dropped;
  for i = 0 to !stored - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d}\n" i
      sp_parent.(i) (name_of_index ~subject_name sp_kind.(i)) sp_start.(i) sp_stop.(i)
  done;
  close_out oc
