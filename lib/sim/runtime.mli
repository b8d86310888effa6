(** Per-domain execution context shared by {!Engine}, {!Shared} and the
    lint recorder ([Hwf_lint]).

    Three concerns live here, all domain-local (one engine run executes
    entirely on one domain, so domain-local state is per-run state):

    - the {e process-context flag}: true exactly while process code (a
      body resumed by {!Engine.run}) is executing. {!Shared.peek} and
      {!Shared.poke} consult it to enforce their harness-only contract
      at run time instead of by documentation alone;
    - the {e instrumentation bracket}: algorithm modules that keep
      harness statistics from inside process code (e.g. the
      access-failure tap of [Hwf_core.Multi_consensus]) wrap those
      zero-statement accesses in {!instrumentation}, which exempts them
      from the guard and marks them for the lint recorder;
    - the {e access tap}: when installed (lint replay), every concrete
      store access — including peeks and pokes that would otherwise
      raise — is reported instead, so the conformance linter can
      cross-check accesses against announced statements rather than
      crash on the first offence. *)

type access_kind = Read | Write | Peek | Poke

type access = {
  var : string;  (** The shared variable's name. *)
  kind : access_kind;
  instrumentation : bool;
      (** The access happened inside an {!instrumentation} bracket. *)
}

val pp_kind : access_kind Fmt.t
val pp_access : access Fmt.t

type handle
(** This domain's context. Looking it up costs a domain-local-storage
    read, so the engine takes it once per run and flips the
    process-context flag through it on every resume and handler entry. *)

val handle : unit -> handle
(** The calling domain's context. Valid on this domain only. *)

val enter : handle -> unit
(** Mark the start of process-code execution. {b Engine use only} —
    called immediately before resuming a process continuation. *)

val leave : handle -> unit
(** Mark the end of process-code execution. {b Engine use only} —
    called as soon as control returns to the scheduler (effect handler
    entry). *)

val in_process : unit -> bool
(** True while process code is executing on this domain. *)

val instrumentation : (unit -> 'a) -> 'a
(** [instrumentation f] runs [f] with the harness-only guard suspended:
    {!Shared.peek}/{!Shared.poke} inside [f] do not raise even from
    process code, and any tapped accesses are flagged as
    instrumentation (the linter ignores them). For deliberate,
    zero-statement bookkeeping only — never for algorithm steps. *)

val with_tap : (access -> unit) -> (unit -> 'a) -> 'a
(** [with_tap tap f] installs [tap] as this domain's access sink for
    the duration of [f] (restoring any previous tap afterwards). While
    installed, harness-only accesses from process code report instead
    of raising. *)

val report : var:string -> kind:access_kind -> unit
(** Report a legitimate (announced) store access to the tap, if one is
    installed. {b Shared use only.} While no domain has a tap installed
    (a global count {!with_tap} maintains) this is one atomic read: no
    domain-local lookup. *)

val harness_access : var:string -> kind:access_kind -> unit
(** Police one {!Shared.peek}/{!Shared.poke}: report it to the tap when
    one is installed; otherwise raise [Invalid_argument] if called from
    process code outside an {!instrumentation} bracket. {b Shared use
    only.} *)
