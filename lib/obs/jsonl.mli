(** Structured export: JSON-lines writers for traces, metrics and race
    reports.

    One compact {!Json} object per line; the first line is a header
    object carrying a ["schema"] tag ({!Json.Schema.trace},
    {!Json.Schema.metrics}, {!Json.Schema.analyze}) plus the run
    configuration, so a consumer can dispatch without sniffing. The
    schema — field names, order, and which quantities are included — is
    documented in [docs/OBSERVABILITY.md] and is stable: field order is
    fixed, every value is an int, bool, string, or nested object, and no
    floats or wall-clock quantities appear, so the bytes produced for a
    given run are deterministic (the same contract as the simulator
    itself). *)

open Hwf_sim

val trace_to_string : Trace.t -> string
(** Header line + one line per event, each ['\n']-terminated. *)

val metrics_to_string : Metrics.t -> string
(** Header line, then ["totals"], per-pid, per-invocation, bound and
    harness rows (in that order), each a one-line object tagged by its
    ["m"] field. Bound rows without a bound omit the [bound]/[margin]
    fields. *)

val races_to_string : config:Config.t -> Races.report -> string
(** [hwf-analyze/1]: header line (schema + configuration), one ["a":
    "race"] line per deduplicated race in trace order, then one
    ["a": "summary"] line with totals and the sorted racy-variable
    list. Deterministic bytes for a given trace. *)

val write_trace : path:string -> Trace.t -> unit
(** [trace_to_string] to [path] (truncating). *)

val write_metrics : path:string -> Metrics.t -> unit

val write_races : path:string -> config:Config.t -> Races.report -> unit
