(** Atomic-statement descriptors.

    Every numbered statement of a paper algorithm is one atomic statement
    in the model, whether it touches shared memory or only private
    variables (the quantum is a statement count over {e all} statements,
    cf. Sec. 2). The descriptor is recorded in the trace and shown to
    scheduling policies {e before} the statement executes. *)

type t =
  | Read of string  (** Read of the named shared variable. *)
  | Write of string  (** Write of the named shared variable. *)
  | Rmw of { var : string; kind : string }
      (** Atomic read-modify-write primitive on [var]; [kind] names the
          primitive, e.g. ["C&S"], ["F&I"], ["consensus"]. *)
  | Local of string  (** Statement touching only private variables. *)

val read : string -> t
val write : string -> t
val rmw : var:string -> kind:string -> t
val local : string -> t

val var : t -> string option
(** Shared variable touched, if any. *)

val pp : t Fmt.t
val equal : t -> t -> bool
