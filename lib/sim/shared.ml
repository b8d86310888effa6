(* Each variable carries its two statement descriptors, built once at
   [make]: an access announces a prebuilt [Op.t] instead of allocating
   one per statement. *)
type 'a t = { mutable v : 'a; name : string; rd : Op.t; wr : Op.t }

let make name v = { v; name; rd = Op.read name; wr = Op.write name }

let name t = t.name

let read t =
  Eff.step t.rd;
  Runtime.report ~var:t.name ~kind:Runtime.Read;
  t.v

let write t x =
  Eff.step t.wr;
  Runtime.report ~var:t.name ~kind:Runtime.Write;
  t.v <- x

let peek t =
  Runtime.harness_access ~var:t.name ~kind:Runtime.Peek;
  t.v

let poke t x =
  Runtime.harness_access ~var:t.name ~kind:Runtime.Poke;
  t.v <- x

(* Objects grow cells during a run (a fresh consensus slot per attempt),
   so this is on the statement path: a Fig. 7 schedule names about 1,100
   cells. One allocation with the digits written in place costs ~20 ns;
   [String.concat] around [string_of_int], which goes through the C
   formatter, costs ~150 ns and lowered explore-mp's schedules/s in 8 of
   10 alternating pairs (median -11%). *)
let subscript name k =
  if k < 0 then String.concat "" [ name; "["; string_of_int k; "]" ]
  else begin
    let rec width k = if k < 10 then 1 else 1 + width (k / 10) in
    let n = String.length name and w = width k in
    let b = Bytes.create (n + w + 2) in
    Bytes.blit_string name 0 b 0 n;
    Bytes.set b n '[';
    let k = ref k in
    for i = n + w downto n + 1 do
      Bytes.set b i (Char.unsafe_chr (48 + (!k mod 10)));
      k := !k / 10
    done;
    Bytes.set b (n + w + 1) ']';
    Bytes.unsafe_to_string b
  end

let subscript2 name i j = subscript (subscript name i) j

let array name n init = Array.init n (fun i -> make (subscript name (i + 1)) (init i))

let matrix name rows cols init =
  Array.init rows (fun i ->
      Array.init cols (fun j -> make (subscript2 name (i + 1) (j + 1)) (init i j)))
