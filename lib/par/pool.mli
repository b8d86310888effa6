(** A hand-rolled work-stealing domain pool (OCaml 5 [Domain], no
    Domainslib).

    The pool model: the input array is cut into {e chunks} of [grain]
    consecutive cells, and the chunks are block-partitioned across the
    workers — the calling domain plus up to [jobs - 1] spawned domains —
    in ascending order, one fixed-capacity Chase–Lev-style deque of
    chunk ids per worker. A worker drains its own deque from the bottom
    (plain loads plus one CAS only for the last element), so the common
    case touches {e no} shared scheduling state; a worker whose deque is
    empty steals from the {e top} of the other deques, round-robin, and
    backs off exponentially ([Domain.cpu_relax]) when a sweep finds
    every deque empty while chunks are still executing. The deques never
    grow — every chunk is seeded at creation — which removes the
    resize/ABA machinery of the full Chase–Lev algorithm.

    [grain] is the unit-of-work knob: one claim (and one potential
    steal) per [grain] cells. The default is automatic —
    [n / (jobs * 8)] clamped to [1 .. 256] — which keeps ~8 steal
    targets per worker for load balance while amortizing the handoff
    cost over many cells. Coarse cells (whole exploration subtrees,
    certification plans) want grain 1, which the auto rule picks for
    small [n]; micro-cells (individual engine runs in the thousands)
    get chunks of hundreds. See [docs/PARALLELISM.md] for tuning.

    Determinism contract: [map f a] writes [f a.(i)] into slot [i] of
    the result, so the {e output} is independent of how chunks were
    distributed or stolen — callers merge results in input order and
    obtain the sequential answer, at every [jobs] and every [grain].
    The contract holds only if [f] itself is domain-safe: it must not
    mutate state shared between cells except through [Atomic] (see
    [docs/PARALLELISM.md]).

    Exceptions: if any cell raises, [map] re-raises the exception of the
    {e lowest} failing index after all workers retire — again the
    sequential behaviour, independent of interleaving. Once an error is
    recorded, cells with a {e higher} index are skipped rather than
    evaluated: their results could never be observed (the output array is
    discarded) and only a lower-index failure can displace the recorded
    one, so skipping preserves the minimum-index contract.

    Worker death: an exception escaping a worker {e outside} [f] (claim
    bookkeeping, stats flush, an allocation failure in the worker's own
    code) is contained the same way — recorded at sentinel index
    [Array.length a], past every genuine cell, so real cell errors take
    precedence and the spawned domains are always joined before anything
    is re-raised. A dead worker's unclaimed chunks remain in its deque
    and are stolen by the survivors: no chunk is lost with its owner. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool width used by the
    CLI's [--jobs] default. *)

type stats
(** Accumulating occupancy counters for {!map}. Off by default: a [map]
    without [?stats] touches no shared counters (workers keep local
    counts and the flush is skipped). A single [stats] value may be
    threaded through many [map] calls; counters only ever grow.

    The counts depend on how domains raced for chunks, so they are
    {e display-only} diagnostics — never part of a deterministic result
    or a JSONL export. *)

val make_stats : jobs:int -> stats
(** [jobs] sizes the per-worker histogram (worker 0 is the calling
    domain). It must cover the [jobs] of every {!map} the value is
    threaded through: {!map} size-checks at call time and raises rather
    than fold overflow workers into the last bucket.
    @raise Invalid_argument if [jobs < 1]. *)

val stats_claims : stats -> int
(** Chunks claimed (own-deque takes plus successful steals) across all
    workers. *)

val stats_steals : stats -> int
(** Chunks obtained by stealing from another worker's deque — the pool's
    load-imbalance signal. Zero means every worker stayed busy on its
    own block (or the run was inline). *)

val stats_evaluated : stats -> int
(** Cells actually evaluated. *)

val stats_skipped : stats -> int
(** Cells skipped because an error with a lower index was already
    recorded. *)

val stats_per_worker : stats -> int array
(** Cells evaluated per worker slot — the pool's load-balance picture.
    Slot [i] is exactly worker [i]'s count: {!map} refuses stats too
    small for its worker set, so no folding ever occurs. *)

val map : ?jobs:int -> ?grain:int -> ?stats:stats -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs ~grain f a] evaluates [f] on every element of [a] using
    up to [jobs] domains (default {!default_jobs}; [jobs <= 1] or a
    single-chunk array runs inline with no domains spawned), claiming
    [grain] consecutive cells per deque operation (default: automatic,
    see above). Result slot [i] is [f a.(i)].
    @raise Invalid_argument if [grain < 1], or if [stats] is sized for
    fewer workers than this call uses. *)

val map_scratch :
  ?jobs:int ->
  ?grain:int ->
  ?stats:stats ->
  make:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array
(** {!map} with a per-worker scratch value: [make ()] is called once per
    worker, {e on that worker's own domain} (so scratch buffers live in
    the evaluating domain's minor heap), and the result is passed to
    every cell the worker evaluates. This is the reuse hook for
    allocation-heavy cells — an exploration worker keeps one trace
    buffer and one decision stack for its thousands of engine runs
    instead of allocating fresh ones per run and paying cross-domain GC
    traffic. The scratch must not escape into results that outlive the
    call unless [f] severs the reference first (the explorer drops its
    buffer from the scratch when a counterexample escapes with it). *)

(**/**)

val worker_retire_test_hook : (int -> unit) option ref
(** Test-only: called with the worker id once per worker after its claim
    loop, inside the worker-death containment window. Used by the
    regression tests to simulate a worker dying outside [f]; must be
    reset to [None] afterwards. *)

(**/**)
