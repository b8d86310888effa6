open Hwf_sim

type 'a t = {
  name : string;
  consensus_number : int;
  mutable decided : 'a option;
  mutable invocations : int;
  propose_op : Op.t;  (* built once: [propose] is on the Fig. 7 statement path *)
}

let make ?(consensus_number = max_int) name =
  if consensus_number < 1 then invalid_arg "Cons_obj.make: consensus_number < 1";
  {
    name;
    consensus_number;
    decided = None;
    invocations = 0;
    propose_op = Op.rmw ~var:name ~kind:"propose";
  }

let consensus_number t = t.consensus_number

let propose t v =
  Eff.step t.propose_op;
  t.invocations <- t.invocations + 1;
  if t.invocations > t.consensus_number then None
  else begin
    (match t.decided with None -> t.decided <- Some v | Some _ -> ());
    t.decided
  end

let read t =
  Eff.step (Op.read t.name);
  t.decided

let invocations t = t.invocations
let peek t = t.decided
let exhausted t = t.invocations > t.consensus_number
