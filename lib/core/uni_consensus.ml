open Hwf_sim

(* [set_val] and [set_w] are the two local statements (lines 1 and 5),
   built once per object. *)
type 'a t = { name : string; p : 'a option Shared.t array; set_val : Op.t; set_w : Op.t }

let make name =
  {
    name;
    p = Shared.array (name ^ ".P") 3 (fun _ -> None);
    set_val = Op.local (name ^ ".v:=val");
    set_w = Op.local (name ^ ".v:=w");
  }

let name t = t.name

let statements_per_decide = 8

(* Fig. 3, statements numbered as in the paper:
     1: v := val
     2: for i := 1 to 3 do          (folded into the loop structure)
     3:   w := P[i]
     4:   if w <> bot then
     5:     v := w
          else
     6:     P[i] := v
     7: return P[3]
   Unrolled: 1 + 3*2 + 1 = 8 statements. *)
let decide t value =
  Eff.step t.set_val;
  let v = ref value in
  for i = 0 to 2 do
    match Shared.read t.p.(i) with
    | Some w -> Eff.step t.set_w; v := w
    | None -> Shared.write t.p.(i) (Some !v)
  done;
  match Shared.read t.p.(2) with
  | Some d -> d
  | None -> assert false (* P[3] is stable and was written by this process if empty *)

let read t =
  match Shared.read t.p.(0) with
  | None -> None
  | Some v -> Some (decide t v)

let peek t = Shared.peek t.p.(2)
