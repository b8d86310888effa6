(** Campaign checkpoint journals ([hwf-ckpt/1]).

    A checkpoint file is JSON lines: a header
    [{"schema":"hwf-ckpt/1","campaign":"...","cells":N}] followed by one
    record [{"cell":I,"key":"...","payload":"..."}] per completed cell,
    appended and flushed as cells finish — so the journal survives a
    SIGKILL at any point (at worst the last line is partial, and the
    loader drops it). [campaign] identifies the run's parameters
    (subject, seeds, sweep shape): resuming against a journal whose
    campaign string differs is refused, because merging cells from a
    different campaign would silently corrupt the result. [cells] is
    the campaign's total cell count (coverage denominator). [key] is a
    human-readable per-cell sanity label (a plan label, a subtree
    index); [payload] is the runner's own serialization of the cell's
    result. Schema documented in [docs/ROBUSTNESS.md]; validated by
    [scripts/check_jsonl.sh]. *)

type t
(** An open journal (append mode, line-buffered, flushed per record).
    Safe to {!record} from multiple pool domains. *)

type header = { campaign : string; cells : int }
type entry = { idx : int; key : string; payload : string }

val load : path:string -> (header * entry list, string) result
(** Parse a journal. A trailing partial line (interrupted write) is
    dropped; parsing stops at the first malformed line. Entries are in
    file order; on duplicate [idx] the last record wins (already
    folded: the returned list has unique indices). *)

val create : path:string -> campaign:string -> cells:int -> t
(** Truncate/create [path] and write the header. *)

val append : path:string -> t
(** Reopen an existing journal for appending (no validation — callers
    go through {!open_} or {!load} first). *)

val open_ :
  path:string -> campaign:string -> cells:int -> resume:bool ->
  (t * entry list, string) result
(** The campaign-runner entry point. [resume = false]: fresh journal
    (existing file truncated), no entries. [resume = true]: load an
    existing journal, validate that [campaign] and [cells] match, and
    return its entries with the journal reopened for appending; a
    missing file degrades to a fresh journal. *)

val record : t -> idx:int -> key:string -> payload:string -> unit
(** Append one completed-cell record and flush. *)

val close : t -> unit

(** {1 Payload codec}

    Shared by the runners' payloads: [key=value] fields split by [;], a
    free-text message as the last field, schedules as space-separated
    0-based pids. *)

val strip_prefix : prefix:string -> string -> string option
val cut : sep:string -> string -> (string * string) option
(** Split around the first occurrence of [sep]. *)

val int_field : string -> string -> int option
(** [int_field "runs" "runs=42"] is [Some 42]. *)

val pids_to_string : int list -> string
val pids_of_string : string -> int list option
