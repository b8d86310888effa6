(** System configuration.

    A configuration fixes the machine shape of the paper's model: the
    process set (with static processor assignment and priorities), the
    number of processors [P], the scheduling quantum [Q] (a statement
    count) and the number of priority levels [V].

    The [axiom2] flag exists to reproduce the paper's Sec. 2 discussion:
    a hybrid scheduler satisfying Axiom 1 but violating Axiom 2 collapses
    back to Herlihy's hierarchy. Setting [axiom2 = false] removes the
    quantum guarantee entirely, which lets experiments demonstrate that
    the paper's algorithms genuinely rely on it. *)

type t = private {
  procs : Proc.t array;  (** Indexed by pid. *)
  processors : int;  (** P. *)
  quantum : int;  (** Q, in atomic statements. *)
  levels : int;  (** V: priorities range over [1..V]. *)
  axiom2 : bool;  (** Enforce the quantum guarantee (default [true]). *)
  tmin : int;  (** Minimum statement duration in time units (default 1). *)
  tmax : int;  (** Maximum statement duration (default 1). With
                   [tmin = tmax = 1] the model is the paper's pure
                   statement-count model; larger spans reproduce the
                   Tmax/Tmin structure of Table 1 (the paper notes time
                   is "easily incorporated"). The quantum [Q] is then a
                   time budget. *)
}

val make :
  ?axiom2:bool ->
  ?tmin:int ->
  ?tmax:int ->
  quantum:int ->
  processors:int ->
  levels:int ->
  Proc.t list ->
  t
(** Builds and validates a configuration.
    @raise Invalid_argument if pids are not [0..N-1] in order, a processor
    index is out of range, a priority is outside [1..levels], or
    [quantum < 0]. *)

val uniprocessor :
  ?axiom2:bool -> ?tmin:int -> ?tmax:int -> quantum:int -> levels:int -> Proc.t list -> t
(** [uniprocessor] is [make ~processors:1]. *)

val n : t -> int
(** Number of processes, the paper's [N]. *)

val max_per_processor : t -> int
(** The paper's [M]: the maximum number of processes on any processor. *)

val is_pure_priority : t -> bool
(** True when all processes sharing a processor have distinct priorities,
    i.e. the quantum machinery can never engage. *)

val is_pure_quantum : t -> bool
(** True when every process has the same priority. *)

val pp : t Fmt.t
