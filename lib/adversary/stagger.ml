open Hwf_sim

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let preempt_after_rmw ?(victim_ops = 1) ~var_prefix ~(fallback : Policy.t) () =
  Policy.of_factory
    (Printf.sprintf "stagger(%s)" var_prefix)
    (fun () ->
      let fb = Policy.prepare fallback in
      let last = ref (-1) in
      let last_was_target = ref false in
      let victimized = Hashtbl.create 8 in
      fun (view : Policy.view) ->
        let switch_target () =
          (* Prefer a runnable process other than the one just preempted. *)
          match List.filter (fun p -> p <> !last) view.runnable with
          | [] -> fb view
          | others ->
            (* Deterministic rotation: pick the next pid after [last]. *)
            (match List.find_opt (fun p -> p > !last) others with
            | Some p -> Some p
            | None -> Some (List.hd others))
        in
        let count pid = Option.value ~default:0 (Hashtbl.find_opt victimized pid) in
        let pick =
          if !last_was_target && count !last < victim_ops then begin
            Hashtbl.replace victimized !last (count !last + 1);
            switch_target ()
          end
          else fb view
        in
        (match pick with
        | Some pid ->
          last := pid;
          let pv = view.proc pid in
          last_was_target :=
            (match pv.next_op with
            | Some (Op.Rmw { var; _ }) -> starts_with ~prefix:var_prefix var
            | Some (Op.Read _ | Op.Write _ | Op.Local _) | None -> false)
        | None -> ());
        pick)

let exhaustion_pressure ~seed ~var_prefix () =
  preempt_after_rmw ~var_prefix ~fallback:(Policy.random ~seed) ()

let delayed_wake ~seed ~wake_every () =
  Policy.of_factory
    (Printf.sprintf "delayed-wake(%d)" wake_every)
    (fun () ->
      let st = Random.State.make [| seed; 0xd31a |] in
      fun (view : Policy.view) ->
      let ready, thinking =
        List.partition
          (fun p -> (view.proc p).Policy.phase = Policy.Ready)
          view.runnable
      in
      let pick = function
        | [] -> None
        | l -> Some (List.nth l (Random.State.int st (List.length l)))
      in
      (* Wake a thinking process only on a sparse schedule (or when
         nothing else can run): freshly woken high-priority processes
         then land in the middle of lower ones' invocations. *)
      if ready = [] then pick thinking
      else if thinking <> [] && view.step mod wake_every = wake_every - 1 then
        pick thinking
      else pick ready)

let max_interleave () =
  Policy.of_fun "max-interleave" (fun (view : Policy.view) ->
      match view.runnable with
      | [] -> None
      | runnable ->
        let steps p = (view.proc p).Policy.own_steps in
        Some
          (List.fold_left
             (fun best p -> if steps p < steps best then p else best)
             (List.hd runnable) (List.tl runnable)))
