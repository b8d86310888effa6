(** The certification suite: the paper's core algorithms packaged as
    {!Certify.subject}s, plus the standard fault campaigns run against
    them.

    Each subject builds its own object per [make] and takes its
    programs from [Hwf_workload.Scenarios] ([propose_once],
    [cas_programs], [increment_once]) — the bodies the scenarios, the
    linter registry and the benches run. Consensus subjects judge their
    survivors with [Scenarios.survivors_agree].

    Positive subjects (must certify clean under every plan the
    campaigns generate):

    - [fig3] — uniprocessor read/write consensus, Theorem 1 bound.
    - [fig3_time] — the same algorithm in the Table 1 time model
      ([tmax > tmin]), where [Slow]/[Jitter] cost plans squeeze the
      quantum.
    - [fig5] — the O(V) hybrid C&S object, Theorem 2 bound,
      linearizability judged with crashed processes' operations pending.
    - [fig7] — multiprocessor consensus from 2-consensus objects,
      Theorem 4 bound.
    - [universal] — a counter from the universal construction over
      Fig. 3 cells.

    The negative control [negative] is Fig. 3 driven by a hand-derived
    two-process schedule that is only schedulable when Axiom 2 is
    suspended; certifying it under {!negative_plan} must {e fail} (the
    two processes decide different values), while the same subject under
    {!Plan.none} passes. A certifier that accepts the suspended run is
    broken — this is the suite's teeth. *)

val fig3 : ?seed:int -> unit -> Certify.subject
val fig3_time : ?seed:int -> unit -> Certify.subject
val fig5 : ?seed:int -> unit -> Certify.subject
val fig7 : ?seed:int -> unit -> Certify.subject
val universal : ?seed:int -> unit -> Certify.subject

val positive_subjects : ?seed:int -> unit -> Certify.subject list

val negative : ?seed:int -> unit -> Certify.subject
val negative_plan : Plan.t

val campaign : ?quick:bool -> ?seed:int -> Certify.subject -> Plan.t list
(** The standard plan battery for a subject: the fault-free plan, the
    exhaustive single-victim crash-point sweep (strided when [quick]),
    two-victim crash pairs on a coarse grid (full mode only),
    cost-model plans when the config has time spread ([tmax > tmin]),
    and seeded chaos plans. Never weakens Axiom 2. Deterministic per
    [seed]. *)

(** {1 The certification campaign}

    The one campaign behind [hybridsim faults] and E16: each positive
    subject certified against its {!campaign}, then optionally the
    negative control against {!negative_plan}. *)

type row = {
  subject : Certify.subject;
  report : Certify.report;
  verdict : string;
      (** ["CERTIFIED"], ["FAILED (n)"], ["REJECTED (expected)"],
          ["NOT REJECTED (certifier bug!)"] or, for a run with incomplete
          coverage, ["INCOMPLETE (coverage)"]. *)
  ok : bool;
      (** A positive subject certified; the negative control rejected.
          Meaningful only when the coverage is complete. *)
}

type certification = {
  positives : row list;  (** In {!positive_subjects} order. *)
  negative : row option;  (** The negative control's row, when run. *)
  coverage : Hwf_resil.Resil.coverage;  (** Union over every row. *)
}

val certify_all :
  ?quick:bool ->
  ?seed:int ->
  ?only:string list ->
  ?negative:bool ->
  ?jobs:int ->
  ?retry:Hwf_resil.Resil.retry ->
  ?cell_wall_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  unit ->
  certification
(** Certify the {!positive_subjects} built from [seed] — those named in
    [only], or all when it is empty (the default) — each against its
    {!campaign} ([quick], [seed]), then the negative control when
    [negative] (default [false]). [checkpoint] is a base path: each
    subject journals to [BASE.<name>.ckpt.jsonl]. The other arguments
    go to {!Certify.certify} unchanged. *)

val columns : row -> string list
(** The row as the front ends tabulate it: subject, plans, passed,
    blocked, worst own steps, bound, verdict. *)
