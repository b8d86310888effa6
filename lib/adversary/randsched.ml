open Hwf_sim

type strategy = Naive | Pct of { depth : int } | Pos | Surw

let name = function
  | Naive -> "naive"
  | Pct _ -> "pct"
  | Pos -> "pos"
  | Surw -> "surw"

let pp ppf = function
  | Pct { depth } -> Fmt.pf ppf "pct(d=%d)" depth
  | s -> Fmt.string ppf (name s)

let of_name ?(depth = 3) = function
  | "naive" | "random" -> Ok Naive
  | "pct" ->
    if depth >= 1 then Ok (Pct { depth })
    else Error "pct depth must be >= 1"
  | "pos" -> Ok Pos
  | "surw" -> Ok Surw
  | s -> Error (Printf.sprintf "unknown strategy %S (naive|pct|pos|surw)" s)

(* Splitmix64 finalizer over (seed, i): the per-run seed derivation for
   sampling campaigns. Adjacent campaign seeds must produce unrelated
   per-run streams — the naive [seed + i] scheme made campaigns 41 and
   42 share all but one of their runs. *)
let mix seed i =
  let open Int64 in
  let z =
    ref
      (logxor
         (mul (of_int seed) 0x9E3779B97F4A7C15L)
         (mul (of_int (i + 1)) 0xBF58476D1CE4E5B9L))
  in
  z := add !z 0x9E3779B97F4A7C15L;
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (shift_right_logical !z 1)

(* Argmax of [pri] over the runnable list (ties by lowest pid; the
   strategies below keep priorities distinct, so ties only matter
   transiently). *)
let argmax (pri : float array) = function
  | [] -> None
  | p0 :: rest ->
    Some (List.fold_left (fun best p -> if pri.(p) > pri.(best) then p else best) p0 rest)

(* PCT (Burckhardt et al., ASPLOS 2010). n distinct initial priorities,
   d-1 priority-change points drawn uniformly over the horizon; each
   decision runs the highest-priority runnable process; when the global
   statement count crosses change point i, the process that executed it
   drops to priority i — below every initial priority, so a bug needing
   d ordered preemption points is hit with probability >= 1/(n·k^(d-1)). *)
let pct ~depth ~horizon ~seed =
  Policy.of_factory
    (Printf.sprintf "pct(d=%d,%d)" depth seed)
    (fun () ->
      let st = Random.State.make [| seed; 0x9c7 |] in
      let horizon = max 1 horizon in
      (* Change point i sits at a uniform position k_i and carries the
         priority value i. The value is tied to the point's {e index},
         not its time order — sorted by position, the values form a
         random permutation, which is what lets a later change point
         demote the running process below an earlier victim and revive
         it (the A-B-A alternations depth-d bugs are made of). *)
      let change =
        Array.init
          (max 0 (depth - 1))
          (fun i -> (1 + Random.State.int st horizon, i + 1))
      in
      Array.sort compare change;
      let next_change = ref 0 in
      let decisions = ref 0 in
      let pri = ref [||] in
      fun (v : Policy.view) ->
        let n = v.nprocs in
        if Array.length !pri < n then begin
          (* Random permutation of d .. d+n-1 (all above the change-point
             priorities 1 .. d-1), mapped into floats for [argmax]. *)
          let a = Array.init n (fun i -> depth + i) in
          for i = n - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t
          done;
          pri := Array.map float_of_int a
        end;
        match argmax !pri v.runnable with
        | None -> None
        | Some pick ->
          incr decisions;
          while
            !next_change < Array.length change
            && fst change.(!next_change) <= !decisions
          do
            !pri.(pick) <- float_of_int (snd change.(!next_change));
            incr next_change
          done;
          Some pick)

(* POS (Yuan et al., CAV 2018 "Partial Order Aware Concurrency
   Sampling"). Every process holds a random real priority; each decision
   runs the highest-priority runnable process, then reassigns fresh
   priorities to the executed process and to every runnable process
   whose next statement is dependent on (not independent of) the
   executed one — the same independence judgement the sleep sets use,
   via [Policy.footprint]. Racing statements thus get fresh coin flips
   at every race, which samples partial orders far more evenly than a
   plain random walk. *)
let pos ~seed =
  Policy.of_factory
    (Printf.sprintf "pos(%d)" seed)
    (fun () ->
      let st = Random.State.make [| seed; 0x905 |] in
      let pri = ref [||] in
      fun (v : Policy.view) ->
        let n = v.nprocs in
        if Array.length !pri < n then
          pri := Array.init n (fun _ -> Random.State.float st 1.0);
        match argmax !pri v.runnable with
        | None -> None
        | Some pick ->
          let fp = Policy.footprint v pick in
          !pri.(pick) <- Random.State.float st 1.0;
          List.iter
            (fun q ->
              if q <> pick && not (Policy.independent fp (Policy.footprint v q))
              then !pri.(q) <- Random.State.float st 1.0)
            v.runnable;
          Some pick)

(* SURW (selectively uniform random walk, ASPLOS 2025). A uniform draw
   per decision does not sample maximal schedules uniformly: a process
   with many statements left roots more distinct completions than one
   about to finish. For independent fixed-length programs the exact
   fix is to weight each candidate by its remaining statement count
   (the number of interleavings beginning with candidate i is
   total · r_i / Σ r_j). [profile] supplies the per-pid total-statement
   estimate (a pilot run); without it the walk degrades to uniform. *)
(* Burst-safe: the singleton arm below returns the forced candidate
   without touching the RNG, so the engine may skip forced decisions.
   PCT and POS are not — PCT's change points are keyed to the decision
   count (which must advance on forced picks) and POS redraws the
   executed process's priority on every decision. *)
let surw ~profile ~seed =
  Policy.of_factory ~burst_safe:true
    (Printf.sprintf "surw(%d)" seed)
    (fun () ->
      let st = Random.State.make [| seed; 0x5324 |] in
      let weight (v : Policy.view) p =
        match profile with
        | None -> 1
        | Some est ->
          let e = if p < Array.length est then est.(p) else 0 in
          max 1 (e - (v.proc p).Policy.own_steps)
      in
      fun (v : Policy.view) ->
        match v.runnable with
        | [] -> None
        | [ p ] -> Some p
        | l ->
          let total = List.fold_left (fun acc p -> acc + weight v p) 0 l in
          let r = ref (Random.State.int st total) in
          let pick = ref (List.hd l) in
          (try
             List.iter
               (fun p ->
                 let w = weight v p in
                 if !r < w then begin
                   pick := p;
                   raise Exit
                 end
                 else r := !r - w)
               l
           with Exit -> ());
          Some !pick)

let policy ?(horizon = 1024) ?profile strategy ~seed =
  match strategy with
  | Naive -> Policy.random ~seed
  | Pct { depth } -> pct ~depth ~horizon ~seed
  | Pos -> pos ~seed
  | Surw -> surw ~profile ~seed
