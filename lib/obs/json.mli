(** The one JSON codec of the repository, and the table of every schema
    it writes.

    Every export goes through this module: the JSON-lines files
    ({!Jsonl}, the lint reporter, [hwf-ckpt/2] checkpoint journals) use
    the compact one-line printer, and the [BENCH_*.json] files use the
    {!pretty} layout. {!Schema} declares each schema once; it is what
    [hybridsim check-json] and the test suite validate exports
    against. No dependency beyond the stdlib. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
      (** A number literal kept as written: fixed-point floats (see
          {!fixed}) and integers beyond [int]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** Members in printing order. *)

val fixed : int -> float -> t
(** [fixed d x] prints [x] with [d] decimals ([Printf "%.*f"]); [Null]
    when [x] is not finite. *)

val option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

(** {1 Printing} *)

val to_string : t -> string
(** Compact, on one line, no spaces: the JSON-lines row format. In
    strings, quote, backslash, [\n], [\r], [\t] and the other control
    characters are escaped; every other byte is printed as is. *)

val add_line : Buffer.t -> t -> unit
(** {!to_string} and a ['\n']. *)

val pretty : t -> string
(** The [BENCH_*.json] layout, ['\n']-terminated: an object's members
    one per line, an array member's elements one per line, and every
    other value inline with [": "] and [", "] separators. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** One JSON value (RFC 8259), surrounded by optional whitespace.
    Numbers without a fraction or exponent that fit an [int] parse as
    [Int], the rest as [Num]. [\u] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** The first member named so, when the value is an object. *)

val string_member : string -> t -> string option
(** The first member named so, when the value is an object and the
    member a string. *)

val int_member : string -> t -> int option
val bool_member : string -> t -> bool option

(** {1 Schemas} *)

module Schema : sig
  type shape =
    | Lines of {
        row : string;
            (** The discriminator every row after the header carries
                ([ev], [m], [a], [l], [cell]). *)
        header : string list;  (** Required header members besides [schema]. *)
        restart : bool;  (** A header line may start a new block mid-file. *)
        partial_tail : bool;
            (** A final line that does not parse is a write cut by a
                crash, and is dropped. *)
      }
        (** JSON lines: a header object carrying ["schema"], then rows. *)
    | Whole of { array : string; header : string list; fields : string list }
        (** One pretty-printed object carrying ["schema"], every member
            in [header], and a non-empty [array] member whose elements
            are objects with every member in [fields]. *)

  type t = { tag : string; shape : shape }

  val trace : t  (** [hwf-trace/1]: {!Jsonl} traces. *)

  val metrics : t  (** [hwf-metrics/1]: {!Jsonl} metrics. *)

  val analyze : t  (** [hwf-analyze/1]: race-certification reports. *)

  val lint : t  (** [hwf-lint/1]: one block per linted subject. *)

  val ckpt : t  (** [hwf-ckpt/2]: campaign checkpoint journals. *)

  val bench_engine : t
  (** [hwf-bench-engine/2]: [BENCH_engine.json] (E19); requires the
      [host] block ([nproc], [ocaml], [mode]) and a [batched] column in
      every cell. *)

  val bench_sched : t  (** [hwf-bench-sched/2]: [BENCH_sched.json] (E20). *)

  val bench_faults : t  (** [hwf-bench-faults/1]: [BENCH_faults.json] (E16). *)

  val bench_par : t  (** [hwf-bench-par/1]: [BENCH_par.json] (E17). *)

  val validate : string -> (string, string) result
  (** Check a file's contents against the schema its header (or, when
      line 1 is not a whole JSON value, its whole-file object) names.
      [Ok] carries a one-line summary, [Error] the first violation. *)

  val validate_file : string -> (string, string) result
  (** {!validate} of the file at a path; an unreadable file is an
      [Error]. *)
end
