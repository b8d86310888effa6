(** Campaign checkpoint journals ([hwf-ckpt/2]): the one journal
    protocol of the campaign runners ([Explore.explore],
    [Certify.certify]).

    A checkpoint file is JSON lines: a header
    [{"schema":"hwf-ckpt/2","campaign":"...","cells":N}] followed by one
    record [{"cell":I,"key":"...","payload":{...}}] per completed cell,
    appended and flushed as cells finish — so the journal survives a
    SIGKILL at any point (at worst the last line is partial, and the
    loader drops it). [campaign] identifies the run's parameters
    (subject, seeds, search bounds): resuming against a journal whose
    campaign string differs is refused, because merging cells from a
    different campaign would silently corrupt the result. [cells] is
    the campaign's total cell count (coverage denominator). [key] is a
    human-readable per-cell label (a plan, a subtree index) that resume
    checks against the campaign's own; [payload] is the cell's value as
    JSON, through the runner's encoder. Schema declared in
    {!Hwf_obs.Json.Schema.ckpt}, documented in [docs/ROBUSTNESS.md],
    validated by [hybridsim check-json]. *)

module Json = Hwf_obs.Json

type 'a t
(** An open journal of cell values of type ['a] (append mode, flushed
    per record), with the cells it restored. {!cell} may journal into it
    from multiple pool domains. *)

val with_journal :
  ?path:string ->
  resume:bool ->
  campaign:(unit -> string) ->
  cells:int ->
  key:(int -> string) ->
  encode:('a -> Json.t) ->
  decode:(int -> Json.t -> 'a option) ->
  ('a t option -> 'b) ->
  ('b, string) result
(** [with_journal ?path ... f] runs a campaign of [cells] cells, [f],
    over its journal. Without [path]: [Ok (f None)]. [resume = false],
    or a missing file: a fresh journal (an existing file is truncated)
    that restores nothing. [resume = true]: load the file, refuse it
    ([Error], and [f] does not run) unless its schema, [campaign ()] and
    [cells] match, restore every record whose index is in range, whose
    key is [key idx] and whose payload [decode idx] accepts, and append
    to the file. A record failing any of these is malformed: its cell
    restores nothing and runs again. The journal is closed when [f]
    returns or raises. [campaign] is only called with a [path]. *)

val restored : 'a t -> int -> 'a option
(** The value a resumed journal restored for a cell. *)

val cell :
  'a t option ->
  should_stop:(unit -> bool) ->
  int ->
  (unit -> 'a Resil.cell) ->
  'a Resil.cell
(** [cell journal ~should_stop i run] is cell [i] of a campaign: its
    restored value, else [Skipped] when a stop is requested
    ([should_stop] ORed with {!Resil.interrupted}), else [run ()]. An
    [Ok_cell] value is journaled unless a stop was requested by the
    time it returned: a cell cut short by a stop must run again on
    resume, not restore partial. Without a journal nothing is restored
    or recorded (and nothing is encoded). *)

(** {1 Schedules in payloads} *)

val pids : int list -> Json.t
(** A schedule as a JSON array of 0-based pids. *)

val pids_member : n:int -> string -> Json.t -> int list option
(** The named member as a schedule of a campaign of [n] processes:
    [None] unless it is an array of pids in [\[0, n)]. *)

(** {1 Reading a journal} *)

type header = { campaign : string; cells : int }
type entry = { idx : int; key : string; payload : Json.t }

val load : path:string -> (header * entry list, string) result
(** Parse a journal. A trailing partial line (interrupted write) is
    dropped; parsing stops at the first malformed line. Entries are in
    file order; on duplicate [idx] the last record wins (already
    folded: the returned list has unique indices). A header naming
    another schema (an [hwf-ckpt/1] journal included) is an [Error]. *)
