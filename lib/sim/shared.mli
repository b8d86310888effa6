(** Shared variables.

    A ['a t] is a single-word shared variable in the paper's sense: reads
    and writes of it are atomic statements. Records the paper stores "in
    one word" (e.g. [hdtype]) are represented directly as OCaml values
    held in one variable, which preserves the atomicity granularity.

    Each access performs exactly one {!Eff.step}, so accesses are visible
    to the scheduler and counted against the quantum.

    A store models memory shared between {e simulated} processes, not
    between OCaml domains: it is a plain mutable cell, safe because the
    engine executes one statement at a time on one domain. When runs are
    fanned out across a domain pool ([docs/PARALLELISM.md]), each run
    must build its own stores (scenario [make] functions already do),
    so no store is ever touched by two domains. *)

type 'a t

val make : string -> 'a -> 'a t
(** [make name init] creates a shared variable. [name] appears in traces. *)

val name : 'a t -> string

val read : 'a t -> 'a
(** Atomic read (one statement). *)

val write : 'a t -> 'a -> unit
(** Atomic write (one statement). *)

val peek : 'a t -> 'a
(** Read the current value {e without} consuming a statement. For test
    harnesses and checkers inspecting quiescent state only — never call
    from process code. The contract is enforced at run time: under an
    active {!Engine.run}, a peek from process code raises
    [Invalid_argument] unless it is wrapped in
    {!Runtime.instrumentation} (deliberate zero-statement bookkeeping)
    or a lint tap is installed ({!Runtime.with_tap}), in which case the
    offence is reported to the linter instead. *)

val poke : 'a t -> 'a -> unit
(** Initialize/overwrite without consuming a statement. Harness use
    only; enforced at run time exactly like {!peek}. *)

val subscript : string -> int -> string
(** [subscript name k] is ["name[k]"], built without a format string:
    objects that grow cells during a run name them with it. *)

val subscript2 : string -> int -> int -> string
(** [subscript2 name i j] is ["name[i][j]"]. *)

val array : string -> int -> (int -> 'a) -> 'a t array
(** [array name n init] creates [n] shared variables named
    [name[1]] … [name[n]], element [i] initialized to [init i]
    (0-based [i]; names render 1-based like the paper). *)

val matrix : string -> int -> int -> (int -> int -> 'a) -> 'a t array array
(** Two-dimensional variant: [name[i][j]]. *)
