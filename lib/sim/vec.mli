(** Growable arrays.

    OCaml 5.1 predates [Dynarray]; this is the small subset the simulator
    needs: amortized O(1) append, O(1) random access, iteration. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument if out of range. *)

val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** [clear v] drops all elements but keeps the underlying buffer, so a
    vector can be reused across runs without reallocating. Old elements
    are not overwritten (they stay reachable until pushed over) — reuse
    is for per-worker scratch buffers, not for releasing memory. *)

val truncate : 'a t -> int -> unit
(** [truncate v n] keeps the first [n] elements (all of them when
    [n >= length v]); like {!clear}, it keeps the buffer. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val last : 'a t -> 'a option
(** [last v] is the most recently pushed element, if any. *)

val exists : ('a -> bool) -> 'a t -> bool

val filter : ('a -> bool) -> 'a t -> 'a list
