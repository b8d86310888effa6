let default_jobs () = Domain.recommended_domain_count ()

type stats = {
  evaluated : int Atomic.t;
  skipped : int Atomic.t;
  per_worker : int Atomic.t array;
}

let make_stats ~jobs =
  if jobs < 1 then invalid_arg "Pool.make_stats: jobs must be >= 1";
  {
    evaluated = Atomic.make 0;
    skipped = Atomic.make 0;
    per_worker = Array.init jobs (fun _ -> Atomic.make 0);
  }

let stats_evaluated s = Atomic.get s.evaluated
let stats_skipped s = Atomic.get s.skipped
let stats_per_worker s = Array.map Atomic.get s.per_worker
let bump a k = ignore (Atomic.fetch_and_add a k)

(* Record the minimum-index failure; CAS loop because two domains may
   fail concurrently. *)
let rec note_error err idx e =
  match Atomic.get err with
  | Some (i, _) when i <= idx -> ()
  | cur ->
    if not (Atomic.compare_and_set err cur (Some (idx, e))) then note_error err idx e

(* Test-only injection point: called once per worker after its claim
   loop, before the stats flush — the retirement window the worker-death
   regression tests exercise. Always [None] in production. *)
let worker_retire_test_hook : (int -> unit) option ref = ref None

let map_scratch ?jobs ?stats ~make f a =
  let n = Array.length a in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map_scratch: jobs must be >= 1";
  let workers = max 1 (min jobs n) in
  (* Size-check the stats histogram against the workers this call will
     actually use, up front: a mismatch would otherwise silently fold
     overflow workers into the last bucket (or, worse, surface as a
     worker-side exception mid-run). *)
  (match stats with
  | Some s when Array.length s.per_worker < workers ->
    invalid_arg
      (Printf.sprintf
         "Pool.map_scratch: stats sized for %d worker(s) but this call uses %d \
          (make_stats ~jobs must cover map_scratch ~jobs)"
         (Array.length s.per_worker) workers)
  | Some _ | None -> ());
  let out = Array.make n None in
  let err = Atomic.make None in
  (* The claim counter: every worker takes the next cell index with one
     fetch-and-add until the index passes [n], so cells are claimed in
     ascending canonical order and each exactly once. *)
  let next = Atomic.make 0 in
  let worker wid () =
    (* Counters are worker-local refs, flushed to [stats] once on
       retirement: no shared-counter traffic in the claim loop, and
       nothing at all touched when [stats] is absent. *)
    let evaluated = ref 0 and skipped = ref 0 in
    let body () =
      (* The scratch is created on the worker's own domain so its
         buffers live in that domain's minor heap. *)
      let scratch = make () in
      let i = ref (Atomic.fetch_and_add next 1) in
      while !i < n do
        (* A recorded error at index [j] makes every cell with a higher
           index dead: the output array is discarded once [err] is set,
           and only a lower-index failure can replace [j] in
           [note_error]. Skipping those cells still re-raises the
           minimum-index exception regardless of how domains
           interleaved, without evaluating work whose result cannot be
           observed. *)
        (match Atomic.get err with
        | Some (j, _) when !i > j -> incr skipped
        | _ -> (
          incr evaluated;
          match f scratch a.(!i) with
          | v -> out.(!i) <- Some v
          | exception e -> note_error err !i e));
        i := Atomic.fetch_and_add next 1
      done;
      (match !worker_retire_test_hook with None -> () | Some h -> h wid);
      match stats with
      | None -> ()
      | Some s ->
        bump s.evaluated !evaluated;
        bump s.skipped !skipped;
        bump s.per_worker.(wid) !evaluated
    in
    (* Worker-death containment: an exception escaping the claim loop
       {e outside} [f] (stats flush, OOM in the worker's own
       allocations) must not propagate out of [Domain.join] — that would
       bypass [note_error]'s min-index contract, and from worker 0 it
       would leak the spawned domains unjoined. Record it at sentinel
       index [n]: every genuine cell error (index < n) takes precedence,
       and if the worker death is the only failure it is re-raised after
       all workers retire. A worker that dies holds no unclaimed cells:
       the survivors keep claiming from the shared counter. *)
    try body () with e -> note_error err n e
  in
  let spawned = Array.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join spawned;
  match Atomic.get err with
  | Some (_, e) -> raise e
  | None -> Array.map (function Some v -> v | None -> assert false) out
