type access_kind = Read | Write | Peek | Poke

type access = { var : string; kind : access_kind; instrumentation : bool }

let pp_kind ppf k =
  Fmt.string ppf
    (match k with Read -> "read" | Write -> "write" | Peek -> "peek" | Poke -> "poke")

let pp_access ppf a =
  Fmt.pf ppf "%a %s%s" pp_kind a.kind a.var
    (if a.instrumentation then " (instrumentation)" else "")

(* One context per domain: the engine executes a run entirely on one
   domain, and the pool fans runs out over distinct domains, so
   domain-local state is exactly per-run state. *)
type handle = {
  mutable in_process : bool;
  mutable instr_depth : int;
  mutable tap : (access -> unit) option;
}

let key =
  Domain.DLS.new_key (fun () -> { in_process = false; instr_depth = 0; tap = None })

let handle () = Domain.DLS.get key

let enter h = h.in_process <- true
let leave h = h.in_process <- false
let in_process () = (handle ()).in_process

(* Taps installed on any domain. While it reads 0 — every run outside
   lint replay — [report] needs no domain-local lookup: no domain has a
   tap to report to. A domain always sees its own increments, so a
   tapped domain never skips its tap. *)
let taps = Atomic.make 0

let instrumentation f =
  let c = handle () in
  c.instr_depth <- c.instr_depth + 1;
  Fun.protect ~finally:(fun () -> c.instr_depth <- c.instr_depth - 1) f

let with_tap tap f =
  let c = handle () in
  let previous = c.tap in
  c.tap <- Some tap;
  Atomic.incr taps;
  Fun.protect
    ~finally:(fun () ->
      c.tap <- previous;
      Atomic.decr taps)
    f

let report ~var ~kind =
  if Atomic.get taps > 0 then
    let c = handle () in
    match c.tap with
    | None -> ()
    | Some f -> f { var; kind; instrumentation = c.instr_depth > 0 }

let harness_access ~var ~kind =
  let c = handle () in
  if c.in_process && c.instr_depth = 0 then begin
    match c.tap with
    | Some f -> f { var; kind; instrumentation = false }
    | None ->
      Fmt.invalid_arg "Shared.%a: harness-only access to %s from process code"
        pp_kind kind var
  end
  else
    match c.tap with
    | None -> ()
    | Some f -> f { var; kind; instrumentation = c.instr_depth > 0 }
