(** Closed-form bounds from the paper (Table 1, Theorems 1–4, Lemmas
    2/3/B.1/B.2).

    The paper states quantum bounds as multiples of [T_max]/[T_min], the
    maximum/minimum time of an atomic operation. In the statement-count
    model every statement takes one unit, so [T_max = T_min = 1] and the
    bounds reduce to pure statement counts, exactly as the remark below
    Theorem 4 observes. The constant [c] is algorithm-specific ("the
    worst-case number of statement executions per level" for Theorem 4;
    "the longest code sequence for which we require at most one quantum
    preemption" for Theorem 2); callers supply the [c] measured for this
    implementation. *)

val uniprocessor_consensus_quantum : int
(** Theorem 1: [Q >= 8] suffices for the Fig. 3 algorithm. This is both
    the quantum bound and the exact statement count of one [decide]
    ({!Uni_consensus.statements_per_decide} re-exports it from the
    algorithm's side); the linter re-derives it from replayed bodies. *)

val fig5_stmt_const : int
(** The per-level statement constant [c] of the Fig. 5 hybrid C&S
    implementation: an upper bound on the statements one [cas]/[read]
    executes per priority level (each retries at most once per level).
    Theorem 2 asks for [Q >= c]; {!Hwf_faults.Suite.fig5}'s own-step
    bound is [c * V * ops]. Declared with slack above the measured
    worst case; the linter checks the declaration against the maximum
    it derives by replay. *)

val fig7_stmt_const : int
(** The per-level statement constant [c] of the Fig. 7 multiprocessor
    consensus implementation, used in the Theorem 4 quantum
    [max (2c) (c(2P + 1 - C))] and in {!Hwf_faults.Suite.fig7}'s
    own-step bound [c * L]. Declared with slack; linted like
    {!fig5_stmt_const}. *)

val universal_stmt_const : int
(** The per-operation statement constant of the universal-construction
    counter over Fig. 3 cells ({!Hwf_faults.Suite.universal}'s bound is
    [c * N]). Declared with slack; linted like {!fig5_stmt_const}. *)

val universal_quantum : c:int -> p:int -> consensus_number:int -> int option
(** Theorem 4 / Table 1 middle column: the quantum at which an object
    with the given consensus number is universal on [p] processors —
    [max (2c) (c * (2p + 1 - consensus_number))] — or [None] when
    [consensus_number < p] (impossible regardless of the quantum). A
    [consensus_number >= 2p] yields [2c]; [max_int] (infinite consensus
    number) yields [0]: any quantum works. *)

val impossibility_quantum : p:int -> consensus_number:int -> int option
(** Theorem 3 / Table 1 last column: the largest quantum at which
    wait-free consensus is impossible with the given base objects —
    [max 1 (2p - consensus_number)] — or [None] when the consensus
    number is infinite ([max_int]). For [consensus_number < p] every
    quantum is impossible; this function still reports the Table 1 row
    value for finite cases. *)

val fig7_k : p:int -> consensus_number:int -> int
(** Fig. 7's [K = min C 2P - P]: how far the consensus number [C]
    exceeds [P], capped at [P] (a processor uses at most two ports per
    object, so a consensus number above [2P] adds nothing). The instance built from [C] has
    {!levels} [~k:(fig7_k ~p ~consensus_number)] levels, and its first
    [K] processors get two ports per object ({!ports_per_processor}).
    Negative when [consensus_number < p], where no instance exists. *)

val levels : m:int -> p:int -> k:int -> int
(** Fig. 7's constant [L = (K+1)M(1+P-K) + (P-K)^2 M + 1], the number of
    consensus levels needed when [C = P + K], [0 <= k <= p], with at most
    [m] processes per processor.
    @raise Invalid_argument unless [0 <= k <= p] and [m >= 1]. *)

val ports_per_processor : p:int -> k:int -> processor:int -> int
(** Fig. 8: processors [0..k-1] have two ports per consensus object,
    processors [k..p-1] one (0-based [processor]). *)

val af_diff_bound : m:int -> int
(** Lemma 2: [AF_diff <= M]. *)

val af_same_bound : m:int -> p:int -> k:int -> l:int -> int
(** Lemma 3: [AF_same <= KM + (P-K)(L + M(P-K)) / (1+P-K)] (real-valued
    bound, rounded up). *)

val deciding_level_threshold : m:int -> p:int -> k:int -> int
(** Lemma 3: a deciding level exists whenever
    [L > (K+1)M(1+P-K) + (P-K)^2 M]; this returns that right-hand side. *)

val exponential_baseline_levels : m:int -> p:int -> int
(** Substitution 3 (DESIGN.md): level count [M * 4^P] of the
    deliberately exponential baseline used to exhibit the paper's
    polynomial-vs-exponential contrast with [7] (chosen to dominate the
    polynomial [L] already at small [P]). *)
