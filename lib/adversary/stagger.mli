(** Adversarial schedules in the shape of the Theorem 3 lower bound
    (Sec. 4.1, Appendix A, Figs. 6 and 10).

    The valency argument builds histories in which processes are
    preempted immediately after invoking the shared [C]-consensus object
    [O], so that [Q + 2(P - Q) = 2P - Q] {e distinct} processes invoke
    [O] and exhaust its consensus number whenever [C <= 2P - Q]. The
    policies here reproduce that pressure against a concrete algorithm:

    - {!preempt_after_rmw} switches away from a process the moment it
      completes a read-modify-write on a matching shared object (each
      process is victimized at most [victim_ops] times); between such
      preemptions it defers to a fallback policy. Under the engine's
      rules the switch is only taken when legal, so all produced
      histories remain well-formed — the point of Theorem 3 is precisely
      that small quanta make these histories legal.

    Use together with {!Explore.sample} / a fallback seed sweep to
    search for agreement violations below the Table 1 threshold
    (experiment E6). *)

val preempt_after_rmw :
  ?victim_ops:int ->
  var_prefix:string ->
  fallback:Hwf_sim.Policy.t ->
  unit ->
  Hwf_sim.Policy.t
(** [preempt_after_rmw ~var_prefix ~fallback ()] runs [fallback], except
    that when the process just executed an [Rmw] on a variable whose name
    starts with [var_prefix], the policy switches to a different runnable
    process if it legally can (round-robin over victims). [victim_ops]
    (default [1]) bounds how many times each process is victimized, so
    runs terminate. Stateful: build a fresh policy per run. *)

val exhaustion_pressure :
  seed:int -> var_prefix:string -> unit -> Hwf_sim.Policy.t
(** Convenience: {!preempt_after_rmw} over a seeded random fallback. *)

val delayed_wake : seed:int -> wake_every:int -> unit -> Hwf_sim.Policy.t
(** Runs already-started processes and wakes a thinking one only every
    [wake_every] statements (or when nothing else is runnable) — the
    "eligibility" control of the lower-bound model: freshly woken
    higher-priority processes land mid-invocation of lower ones, which is
    what produces access failures (E7) and the Fig. 6 history shape. *)

val max_interleave : unit -> Hwf_sim.Policy.t
(** The staggering schedule of the lower-bound proof: always run the
    legal process with the fewest own statements, switching as often as
    Axioms 1–2 allow. With [M] fresh processes per level, the first [M]
    preemptions are free (a process's first preemption may occur at any
    point), after which switches occur every [Q] statements — the
    densest legal interleaving, which is what defeats read/write
    constructions once [Q] drops below the Table 1 thresholds. *)
