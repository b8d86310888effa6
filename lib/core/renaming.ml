open Hwf_sim

type t = { name : string; slots : int Uni_consensus.t Vec.t }

let make name = { name; slots = Vec.create () }

let slot t i =
  while Vec.length t.slots <= i do
    Vec.push t.slots
      (Uni_consensus.make (Shared.subscript (t.name ^ ".slot") (Vec.length t.slots + 1)))
  done;
  Vec.get t.slots i

let acquire t ~pid =
  let rec claim i =
    if Uni_consensus.decide (slot t i) pid = pid then i + 1 else claim (i + 1)
  in
  claim 0
