(** Fig. 7: wait-free multiprocessor consensus for any number of
    processes from [C]-consensus objects, [C >= P] (Theorem 4).

    Processes march through [L] consensus levels (Fig. 8), where
    [L = (K+1)M(1+P-K) + (P-K)^2 M + 1] and [C = P + K]. Each level is
    one hardware [C]-consensus object; access is mediated by ports —
    two per level on processors [1..K], one on processors [K+1..P], so a
    level sees at most [C] invocations. Per processor and priority
    level, a port counter [Port[i,v]] (advanced with local F&I / local
    C&S), a published-output table [Outval[i,l]] and a high-water mark
    [Lastpub[i,v]] (advanced with local C&S) coordinate the processes of
    one processor; a per-port local consensus object elects the single
    process that may use each port. All the local objects are the
    uniprocessor constructions of {!Uni_consensus}, {!Q_cas} and
    {!Q_fai}, so beyond the [C]-consensus objects the algorithm uses
    only reads and writes.

    With a quantum of at least [c(2P+1-C)] statements (Table 1, middle
    column; [c] is the per-level statement constant of this
    implementation, measured by the E5 bench), enough levels avoid
    access failures that a {e deciding level} exists and all processes
    agree. Run below Theorem 3's threshold under an adversarial
    scheduler, the [C]-consensus objects get exhausted and agreement can
    fail — that is experiment E6, not a bug.

    When [C >= 2P] the [K = P] instance is used, as the paper notes. *)

type 'a t

val make :
  ?levels_override:int ->
  config:Hwf_sim.Config.t ->
  name:string ->
  consensus_number:int ->
  unit ->
  'a t
(** [levels_override] replaces the computed [L] — used only by the E9
    bench to instantiate the deliberately exponential baseline
    ({!Bounds.exponential_baseline_levels}) and by robustness tests;
    correctness requires at least the Lemma 3 value.
    @raise Invalid_argument if [consensus_number < processors]. *)

val decide : 'a t -> pid:int -> 'a -> 'a
(** Propose a value; returns the common decision. Wait-free: the number
    of own statements is O(L) with the quantum of Theorem 4. *)

val levels : 'a t -> int
(** The constant [L] of this instance. *)

val k : 'a t -> int
(** [K = min C (2P) - P]. *)

(** Harness statistics (not statements), for experiments E5–E7. *)

val exhausted_proposals : 'a t -> int
(** Proposals that hit an exhausted [C]-consensus object (only possible
    below the quantum bound). *)

val access_failures : 'a t -> (int * int) list
(** [(processor, level)] pairs that some process observed as
    inaccessible-yet-unpublished when determining an input value — the
    paper's access failures (Sec. 4.2): all ports of the level were
    already claimed on that processor, but its claimants had not yet
    published (they were preempted mid-level). *)

val access_failures_classified : 'a t -> (int * int) list * (int * int) list
(** [(same_priority, different_priority)] access failures: the paper's
    [AF_same] / [AF_diff] split (Lemmas B.1–B.2 vs Lemma 2). A failure
    observed both ways appears in both lists, mirroring the paper's
    remark that one preemption can cause both kinds. *)

val access_failure_events : 'a t -> int * int
(** [(same, diff)] counts of {e every} access-failure observation, not
    just the distinct [(processor, level)] sites of
    {!access_failures_classified} — the raw totals the observability
    layer exports against the Lemma 3 / Lemma 2 envelopes. *)

val first_deciding_level : 'a t -> int option
(** Quiescent: the smallest level at which no processor had an access
    failure, if any. *)
