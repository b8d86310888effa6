type _ Effect.t +=
  | Step : Op.t -> unit Effect.t
  | Inv_begin : string -> unit Effect.t
  | Inv_end : string -> unit Effect.t
  | Stamp : (int * int) Effect.t
  | Set_priority : int -> unit Effect.t

let step op = Effect.perform (Step op)
let local l = step (Op.local l)

let invocation label body =
  Effect.perform (Inv_begin label);
  let r = body () in
  Effect.perform (Inv_end label);
  r

let stamp () = Effect.perform Stamp
let set_priority p = Effect.perform (Set_priority p)
