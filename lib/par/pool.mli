(** A hand-rolled domain pool (OCaml 5 [Domain], no Domainslib).

    The pool model: the workers — the calling domain plus
    [min jobs n - 1] spawned domains, for an input of [n] cells — share
    one claim counter. Each worker takes the next cell index with one
    [Atomic.fetch_and_add] and evaluates that cell, until the index
    passes [n]; [jobs = 1] runs the same loop on the calling domain
    alone. Every claim succeeds in one atomic step, so a worker never
    retries or waits for another, and cells are claimed in ascending
    index order — the order the callers' canonical merges read them in.
    One fetch-and-add per cell is noise next to the cells this pool
    runs: whole exploration subtrees, certification plans, or single
    engine runs. See [docs/PARALLELISM.md].

    Determinism contract: [map_scratch ~make f a] writes [f s a.(i)]
    into slot [i] of the result, so the {e output} is independent of
    which worker claimed which cell — callers merge results in input
    order and obtain the sequential answer, at every [jobs]. The
    contract holds only if [f] itself is domain-safe: it must not
    mutate state shared between cells except through [Atomic] (see
    [docs/PARALLELISM.md]).

    Exceptions: if any cell raises, [map_scratch] re-raises the
    exception of the {e lowest} failing index after all workers retire
    — again the sequential behaviour, independent of interleaving. Once
    an error is recorded, cells with a {e higher} index are skipped
    rather than evaluated: their results could never be observed (the
    output array is discarded) and only a lower-index failure can
    displace the recorded one, so skipping preserves the minimum-index
    contract.

    Worker death: an exception escaping a worker {e outside} [f] (stats
    flush, an allocation failure in the worker's own code) is contained
    the same way — recorded at sentinel index [Array.length a], past
    every genuine cell, so real cell errors take precedence and the
    spawned domains are always joined before anything is re-raised. A
    dead worker holds no unclaimed cells: the survivors keep claiming
    from the shared counter. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool width used by the
    CLI's [--jobs] default. *)

type stats
(** Accumulating occupancy counters for {!map_scratch}. Off by default:
    a call without [?stats] touches no shared counters (workers keep
    local counts and the flush is skipped). A single [stats] value may
    be threaded through many calls; counters only ever grow.

    The counts depend on how domains raced for cells, so they are
    {e display-only} diagnostics — never part of a deterministic result
    or a JSONL export. *)

val make_stats : jobs:int -> stats
(** [jobs] sizes the per-worker histogram (worker 0 is the calling
    domain). It must cover the [jobs] of every {!map_scratch} the value
    is threaded through: {!map_scratch} size-checks at call time and
    raises rather than fold overflow workers into the last bucket.
    @raise Invalid_argument if [jobs < 1]. *)

val stats_evaluated : stats -> int
(** Cells actually evaluated. *)

val stats_skipped : stats -> int
(** Cells skipped because an error with a lower index was already
    recorded. Every claimed cell is either evaluated or skipped. *)

val stats_per_worker : stats -> int array
(** Cells evaluated per worker slot — the pool's load-balance picture.
    Slot [i] is exactly worker [i]'s count: {!map_scratch} refuses stats
    too small for its worker set, so no folding ever occurs. *)

val map_scratch :
  ?jobs:int ->
  ?stats:stats ->
  make:(unit -> 's) ->
  ('s -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_scratch ~jobs ~make f a] evaluates [f] on every element of [a]
    using up to [jobs] domains (default {!default_jobs}; never more
    domains than cells). Result slot [i] is [f s a.(i)], where [s] is
    the scratch of the worker that claimed cell [i]: [make ()] is called
    once per worker, {e on that worker's own domain} (so scratch buffers
    live in the evaluating domain's minor heap), and the result is
    passed to every cell the worker evaluates. This is the reuse hook
    for allocation-heavy cells — an exploration worker keeps one trace
    buffer and one decision stack for its thousands of engine runs, and
    a certification worker one trace for every run of every plan it
    evaluates, instead of allocating fresh ones per run and paying
    cross-domain GC traffic. The scratch must not escape into results
    that outlive the call unless [f] severs the reference first (the
    explorer drops its buffer from the scratch when a counterexample
    escapes with it; certify results never reference theirs).
    @raise Invalid_argument if [jobs < 1], or if [stats] is sized for
    fewer workers than this call uses. *)

(**/**)

val worker_retire_test_hook : (int -> unit) option ref
(** Test-only: called with the worker id once per worker after its claim
    loop, inside the worker-death containment window. Used by the
    regression tests to simulate a worker dying outside [f]; must be
    reset to [None] afterwards. *)

(**/**)
