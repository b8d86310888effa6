(* The harness resilience layer: deadlines, error taxonomy, bounded
   retry with backoff, coverage accounting and cooperative interrupts.
   See docs/ROBUSTNESS.md for the policy this implements. *)

(* ---- deadlines ---- *)

type deadline = float option  (* absolute Unix.gettimeofday expiry *)

exception Deadline_exceeded of string

let no_deadline = None

let deadline ?wall_s () = Option.map (fun s -> Unix.gettimeofday () +. s) wall_s

let expired = function Some t -> Unix.gettimeofday () >= t | None -> false

let check_deadline d =
  if expired d then raise (Deadline_exceeded "wall-clock deadline exceeded")

let guard_observer ?(every = 2048) d =
  (* One int incr + compare per event; a gettimeofday only every
     [every] events. Per-cell state, so no cross-domain traffic. *)
  let count = ref 0 in
  fun _ev ->
    incr count;
    if !count >= every then begin
      count := 0;
      check_deadline d
    end

(* ---- error taxonomy ---- *)

type error_class = Transient | Harness_bug

let classify = function
  | Out_of_memory | Stack_overflow -> Transient
  | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> Transient
  | _ -> Harness_bug

(* ---- retry policy ---- *)

type retry = {
  attempts : int;
  backoff_s : float;
  backoff_factor : float;
  max_backoff_s : float;
  retry_timeouts : bool;
}

let default_retry =
  {
    attempts = 3;
    backoff_s = 0.05;
    backoff_factor = 8.;
    max_backoff_s = 2.;
    retry_timeouts = true;
  }

let no_retry = { default_retry with attempts = 1 }

let backoff_for retry ~attempt =
  (* Sleep before attempt [attempt] (attempt 2 sleeps the base). *)
  min retry.max_backoff_s
    (retry.backoff_s *. (retry.backoff_factor ** float_of_int (attempt - 2)))

(* ---- cells ---- *)

type 'a outcome =
  | Ok_cell of 'a
  | Timed_out of string
  | Errored of error_class * string
  | Skipped of string

type 'a cell = { outcome : 'a outcome; attempts : int }

let cell_value c = match c.outcome with Ok_cell v -> Some v | _ -> None

let run_cell ?(retry = no_retry) ?(deadline_for = fun ~attempt:_ -> no_deadline)
    ?(sleep = Unix.sleepf) f =
  let attempts = max 1 retry.attempts in
  let rec go attempt =
    let again mk =
      if attempt >= attempts then { outcome = mk (); attempts = attempt }
      else begin
        sleep (backoff_for retry ~attempt:(attempt + 1));
        go (attempt + 1)
      end
    in
    match f (deadline_for ~attempt) with
    | v -> { outcome = Ok_cell v; attempts = attempt }
    | exception Deadline_exceeded detail ->
      if retry.retry_timeouts then again (fun () -> Timed_out detail)
      else { outcome = Timed_out detail; attempts = attempt }
    | exception e -> (
      let detail = Printexc.to_string e in
      match classify e with
      | Transient -> again (fun () -> Errored (Transient, detail))
      | Harness_bug -> { outcome = Errored (Harness_bug, detail); attempts = attempt })
  in
  go 1

(* ---- coverage ---- *)

type coverage = {
  cells_total : int;
  cells_done : int;
  timeouts : int;
  errors : int;
  skipped : int;
  retries : int;
  degraded : int;
  interrupted : bool;
}

let full_coverage n =
  {
    cells_total = n;
    cells_done = n;
    timeouts = 0;
    errors = 0;
    skipped = 0;
    retries = 0;
    degraded = 0;
    interrupted = false;
  }

let coverage_of_cells cells =
  let c = ref (full_coverage 0) in
  Array.iter
    (fun cell ->
      let cur = !c in
      let cur = { cur with cells_total = cur.cells_total + 1 } in
      let cur =
        { cur with retries = cur.retries + max 0 (cell.attempts - 1) }
      in
      c :=
        (match cell.outcome with
        | Ok_cell _ ->
          {
            cur with
            cells_done = cur.cells_done + 1;
            degraded = (cur.degraded + if cell.attempts > 1 then 1 else 0);
          }
        | Timed_out _ -> { cur with timeouts = cur.timeouts + 1 }
        | Errored _ -> { cur with errors = cur.errors + 1 }
        | Skipped _ -> { cur with skipped = cur.skipped + 1; interrupted = true }))
    cells;
  !c

let coverage_union a b =
  {
    cells_total = a.cells_total + b.cells_total;
    cells_done = a.cells_done + b.cells_done;
    timeouts = a.timeouts + b.timeouts;
    errors = a.errors + b.errors;
    skipped = a.skipped + b.skipped;
    retries = a.retries + b.retries;
    degraded = a.degraded + b.degraded;
    interrupted = a.interrupted || b.interrupted;
  }

let complete c =
  c.cells_done = c.cells_total && c.timeouts = 0 && c.errors = 0 && c.skipped = 0

let pp_coverage ppf c =
  Fmt.pf ppf "%d/%d cells" c.cells_done c.cells_total;
  let parts = [] in
  let parts = if c.timeouts > 0 then Fmt.str "%d timeout" c.timeouts :: parts else parts in
  let parts = if c.errors > 0 then Fmt.str "%d error" c.errors :: parts else parts in
  let parts =
    if c.skipped > 0 then
      Fmt.str "%d skipped%s" c.skipped (if c.interrupted then ", interrupted" else "")
      :: parts
    else parts
  in
  let parts = if c.retries > 0 then Fmt.str "%d retries" c.retries :: parts else parts in
  let parts = if c.degraded > 0 then Fmt.str "%d degraded" c.degraded :: parts else parts in
  match List.rev parts with
  | [] -> ()
  | parts -> Fmt.pf ppf " (%s)" (String.concat "; " parts)

let coverage_rows ~prefix c =
  [
    (prefix ^ ".cells_total", c.cells_total);
    (prefix ^ ".cells_done", c.cells_done);
    (prefix ^ ".timeouts", c.timeouts);
    (prefix ^ ".errors", c.errors);
    (prefix ^ ".skipped", c.skipped);
    (prefix ^ ".retries", c.retries);
    (prefix ^ ".degraded", c.degraded);
    (prefix ^ ".interrupted", if c.interrupted then 1 else 0);
  ]

(* ---- interrupts ---- *)

let interrupt_flag = Atomic.make false
let handlers_installed = ref false

let interrupted () = Atomic.get interrupt_flag
let reset_interrupt () = Atomic.set interrupt_flag false

let install_interrupt_handlers () =
  if not !handlers_installed then begin
    handlers_installed := true;
    let handle _ =
      if Atomic.get interrupt_flag then exit 130 else Atomic.set interrupt_flag true
    in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle handle)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]
  end

(* ---- exit codes ---- *)

let exit_ok = 0
let exit_counterexample = 1
let exit_harness = 2
