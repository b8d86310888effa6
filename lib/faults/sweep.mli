(** Fault-plan generators.

    Pure plan enumeration; running them is {!Certify}'s job. The crash
    sweeps take [solo], the per-pid own-statement counts of an
    {e unfaulted} run of the same subject (see
    {!Certify.solo_own_steps}): crashing victim [v] after [k] own
    statements for every [k] in [0 .. solo.(v)] visits every
    own-statement index the victim can reach, i.e. the sweep is
    exhaustive in crash position. *)

open Hwf_sim

val crash_points :
  ?stride:int -> victims:Proc.pid list -> solo:int array -> unit -> Plan.t list
(** One single-victim plan per victim per crash point
    [0, stride, 2*stride, .. <= solo.(victim)]. [stride] defaults to 1
    (exhaustive). *)

val crash_pairs :
  ?stride:int -> victims:Proc.pid list -> solo:int array -> unit -> Plan.t list
(** Two-victim plans over every unordered victim pair, crash points on a
    [stride] grid (default 2 — pairs square the plan count, so the
    default grid is coarser). *)

val cost_plans : seeds:int list -> Plan.t list
(** The [Slow] plan plus one [Jitter] plan per seed. Only meaningful for
    subjects whose config has [tmax > tmin]. *)

val chaos : seeds:int list -> n:int -> max_after:int -> Plan.t list
(** One {!Plan.chaos} plan per seed; crashes and adversarial costs, never
    Axiom-2 weakening (positive campaigns must pass). *)
