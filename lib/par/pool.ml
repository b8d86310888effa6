let default_jobs () = Domain.recommended_domain_count ()

type stats = {
  claims : int Atomic.t;
  steals : int Atomic.t;
  evaluated : int Atomic.t;
  skipped : int Atomic.t;
  per_worker : int Atomic.t array;
}

let make_stats ~jobs =
  if jobs < 1 then invalid_arg "Pool.make_stats: jobs must be >= 1";
  {
    claims = Atomic.make 0;
    steals = Atomic.make 0;
    evaluated = Atomic.make 0;
    skipped = Atomic.make 0;
    per_worker = Array.init jobs (fun _ -> Atomic.make 0);
  }

let stats_claims s = Atomic.get s.claims
let stats_steals s = Atomic.get s.steals
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

(* A fixed-capacity Chase–Lev-style deque of chunk ids. The buffer never
   grows (every chunk is seeded at creation and only removed), which
   removes the resize/ABA machinery of the full algorithm: [buf] is
   immutable after creation, so a thief that wins the CAS on [top] has
   read a valid element. The buffer is stored in descending chunk order
   so the owner ([take], at [bottom]) drains its block in ascending
   canonical order while thieves ([steal], at [top]) bite off the far
   end — stolen work is the work the owner would have reached last. *)
type deque = {
  buf : int array;
  top : int Atomic.t;
  bottom : int Atomic.t;
}

let deque_of_block ~lo ~hi =
  {
    buf = Array.init (hi - lo) (fun k -> hi - 1 - k);
    top = Atomic.make 0;
    bottom = Atomic.make (hi - lo);
  }

let take d =
  let b = Atomic.get d.bottom - 1 in
  Atomic.set d.bottom b;
  let t = Atomic.get d.top in
  if b < t then begin
    (* empty (thieves drained it); restore the canonical empty shape *)
    Atomic.set d.bottom t;
    None
  end
  else if b = t then begin
    (* last element: race the thieves for it via the CAS on [top] *)
    let won = Atomic.compare_and_set d.top t (t + 1) in
    Atomic.set d.bottom (t + 1);
    if won then Some d.buf.(b) else None
  end
  else Some d.buf.(b)

type steal_result = Stolen of int | Empty | Lost

let steal d =
  let t = Atomic.get d.top in
  let b = Atomic.get d.bottom in
  if t >= b then Empty
  else
    let x = d.buf.(t) in
    if Atomic.compare_and_set d.top t (t + 1) then Stolen x else Lost

(* Auto grain: enough chunks that every worker keeps ~8 steal targets in
   flight (load balance), but never more than one chunk per cell and
   never chunks above 256 cells (a stuck mega-chunk would pin a domain).
   With few cells this degenerates to grain 1 — exactly the old
   cell-per-claim behaviour, which is right for coarse cells. *)
let auto_grain ~n ~jobs =
  if jobs <= 1 then max 1 n else max 1 (min 256 (n / (jobs * 8)))

let map_scratch ?jobs ?grain ?stats ~make f a =
  let n = Array.length a in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let grain =
    match grain with
    | Some g -> if g < 1 then invalid_arg "Pool.map: grain must be >= 1" else g
    | None -> auto_grain ~n ~jobs
  in
  let nchunks = if n = 0 then 0 else ((n - 1) / grain) + 1 in
  (* Size-check the stats histogram against the workers this call will
     actually use, up front: a mismatch would otherwise silently fold
     overflow workers into the last bucket (or, worse, surface as a
     worker-side exception mid-run). *)
  let workers =
    if jobs <= 1 || nchunks <= 1 then 1 else 1 + min (jobs - 1) (nchunks - 1)
  in
  (match stats with
  | Some s when Array.length s.per_worker < workers ->
    invalid_arg
      (Printf.sprintf
         "Pool.map: stats sized for %d worker(s) but this call uses %d (make_stats \
          ~jobs must cover map ~jobs)"
         (Array.length s.per_worker) workers)
  | Some _ | None -> ());
  if n = 0 then [||]
  else if workers = 1 then begin
    (match stats with
    | None -> ()
    | Some s ->
      bump s.claims nchunks;
      bump s.evaluated n;
      bump s.per_worker.(0) n);
    let scratch = make () in
    Array.map (f scratch) a
  end
  else begin
    let out = Array.make n None in
    let err = Atomic.make None in
    (* Chunks are block-partitioned across workers in ascending order:
       worker 0 owns the canonically-first block (whose results gate
       early-abort merges), worker [w-1] the last. [remaining] counts
       unclaimed chunks and is decremented at claim time, so it reaches
       zero exactly when every chunk has an executor — idle workers spin
       (with backoff) until then and retire the moment it does, even if
       a claimed chunk is still running (the joins below wait for it). *)
    let remaining = Atomic.make nchunks in
    let deques =
      let q = nchunks / workers and r = nchunks mod workers in
      Array.init workers (fun w ->
          let lo = (w * q) + min w r in
          let hi = lo + q + if w < r then 1 else 0 in
          deque_of_block ~lo ~hi)
    in
    let worker wid () =
      (* Counters are worker-local refs, flushed to [stats] once on
         retirement: no shared-counter traffic in the claim loop, and
         nothing at all touched when [stats] is absent. *)
      let claims = ref 0 and steals = ref 0 in
      let evaluated = ref 0 and skipped = ref 0 in
      let backoff = ref 1 in
      let claim () =
        match take deques.(wid) with
        | Some c ->
          ignore (Atomic.fetch_and_add remaining (-1));
          incr claims;
          Some c
        | None ->
          (* Own block drained: steal, round-robin from the next worker,
             until every chunk in the pool is claimed. A lost CAS means a
             victim still has work — re-sweep immediately; an all-empty
             sweep with chunks still unclaimed means the tail chunks are
             mid-execution elsewhere — back off exponentially before
             looking again. *)
          let result = ref None in
          while !result = None && Atomic.get remaining > 0 do
            let contended = ref false in
            for k = 1 to workers - 1 do
              if !result = None then
                match steal deques.((wid + k) mod workers) with
                | Stolen c ->
                  ignore (Atomic.fetch_and_add remaining (-1));
                  incr claims;
                  incr steals;
                  backoff := 1;
                  result := Some c
                | Lost -> contended := true
                | Empty -> ()
            done;
            if !result = None && not !contended && Atomic.get remaining > 0
            then begin
              for _ = 1 to !backoff do
                Domain.cpu_relax ()
              done;
              backoff := min 4096 (2 * !backoff)
            end
          done;
          !result
      in
      let exec scratch c =
        let lo = c * grain and hi = min n ((c + 1) * grain) in
        for i = lo to hi - 1 do
          (* A recorded error at index [j] makes every cell with a
             higher index dead: the output array is discarded once
             [err] is set, and only a lower-index failure can replace
             [j] in [note_error]. Skipping those cells still re-raises
             the minimum-index exception regardless of how domains
             interleaved, without evaluating work whose result cannot
             be observed. *)
          match Atomic.get err with
          | Some (j, _) when i > j -> incr skipped
          | _ -> (
            incr evaluated;
            match f scratch a.(i) with
            | v -> out.(i) <- Some v
            | exception e -> note_error err i e)
        done
      in
      let body () =
        (* The scratch is created on the worker's own domain so its
           buffers live in that domain's minor heap. *)
        let scratch = make () in
        let live = ref true in
        while !live do
          match claim () with
          | Some c -> exec scratch c
          | None -> live := false
        done;
        (match !worker_retire_test_hook with None -> () | Some h -> h wid);
        match stats with
        | None -> ()
        | Some s ->
          bump s.claims !claims;
          bump s.steals !steals;
          bump s.evaluated !evaluated;
          bump s.skipped !skipped;
          bump s.per_worker.(wid) !evaluated
      in
      (* Worker-death containment: an exception escaping the claim loop
         {e outside} [f] (stats flush, claim bookkeeping, OOM in the
         worker's own allocations) must not propagate out of
         [Domain.join] — that would bypass [note_error]'s min-index
         contract, and from worker 0 it would leak the spawned domains
         unjoined. Record it at sentinel index [n]: every genuine cell
         error (index < n) takes precedence, and if the worker death is
         the only failure it is re-raised after all workers retire. The
         dead worker's unclaimed chunks stay in its deque, where the
         surviving workers steal them — claims, and so retirement, do
         not depend on the owner staying alive. *)
      try body () with e -> note_error err n e
    in
    let spawned =
      Array.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join spawned;
    match Atomic.get err with
    | Some (_, e) -> raise e
    | None -> Array.map (function Some v -> v | None -> assert false) out
  end

let map ?jobs ?grain ?stats f a =
  map_scratch ?jobs ?grain ?stats ~make:(fun () -> ()) (fun () x -> f x) a
