(** The lint registry: one {!Hwf_lint.Lint.spec} per paper algorithm.

    Each spec pairs a workload with the theorem preconditions the rest
    of the repository asserts about it. The workload is a {!Scenarios}
    scenario, whose programs come from {!Scenarios.propose_once},
    {!Scenarios.cas_programs} and {!Scenarios.increment_once} — the
    same helpers [Hwf_faults.Suite] builds its subjects from, so the
    linter and the certifier run the same bodies by construction. The
    preconditions use the same constants
    ({!Hwf_core.Bounds.fig5_stmt_const} etc.) that size the certifier's
    own-step bounds, so the two cannot drift apart:

    - [fig3] — Theorem 1: exactly
      {!Hwf_core.Uni_consensus.statements_per_decide} statements per
      decide, [Q >= 8];
    - [fig5] — Theorem 2: at most [c.V] statements per operation,
      [Q >= c] with [c = Bounds.fig5_stmt_const];
    - [fig7] — Theorem 4: at most [c.L] statements per decide,
      [Q >= max (2c) (c(2P+1-C))] with [c = Bounds.fig7_stmt_const];
    - [fig9] — Sec. 5: helping-based, no static per-invocation bound
      (linted under fair schedules only);
    - [universal] — counter over Fig. 3 cells: at most [c.N] statements
      per increment, [Q >= 8] per cell. *)

val fig3 : unit -> Hwf_lint.Lint.spec
val fig5 : unit -> Hwf_lint.Lint.spec
val fig7 : unit -> Hwf_lint.Lint.spec
val fig9 : unit -> Hwf_lint.Lint.spec
val universal : unit -> Hwf_lint.Lint.spec

val all : unit -> Hwf_lint.Lint.spec list
(** Every registered spec, in a fixed order. *)

val names : string list
(** The registered names, matching {!find}. *)

val find : string -> Hwf_lint.Lint.spec option

val static_relation :
  Hwf_adversary.Explore.scenario ->
  ( Hwf_adversary.Explore.relation * Hwf_lint.Indep.summary * Hwf_lint.Indep.certification,
    string )
  result
(** The certified static independence oracle for a scenario, named
    ["static"] — what [hybridsim explore --indep] feeds the sleep-set
    pruning. The scenario is linted under fair schedules only (its
    bodies may help), the oracle derived from the replays, and every
    claim certified by swap-replay against the scenario's own verdict;
    [Error] carries the first refutation. *)
