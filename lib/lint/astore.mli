(** The abstract store: who touches which shared variable, and how.

    Folded from the announced statements and tapped accesses of a
    replay battery, it is the value domain of the linter's abstract
    interpretation — per-variable reader/writer process sets (plus
    harness-access counters). The loop checker consults it to decide
    whether a spin loop is {e helping-bounded}: a loop whose body reads
    a variable that a different process writes can be released by that
    process, while one that reads only self-written state cannot. *)

type info = {
  mutable readers : Set.Make(Int).t;  (** Pids that announced reads. *)
  mutable writers : Set.Make(Int).t;  (** Pids that announced writes (incl. rmw). *)
  mutable rmw_kinds : string list;  (** Distinct rmw kinds seen. *)
  mutable peeks : int;  (** Non-instrumentation peeks from process windows. *)
  mutable pokes : int;  (** Non-instrumentation pokes from process windows. *)
  mutable instrumented : int;  (** Accesses inside {!Hwf_sim.Runtime.instrumentation}. *)
}

type t

val build : Recorder.run list -> t

val writers : t -> string -> int list
(** Writer pids of a variable, ascending ([[]] for unknown variables). *)

val readers : t -> string -> int list
(** Reader pids of a variable, ascending. *)

val written_by_other : t -> var:string -> pid:int -> bool
(** Does any process other than [pid] write [var]? *)

val vars : t -> (string * info) list
(** All variables, sorted by name (deterministic report order). *)
