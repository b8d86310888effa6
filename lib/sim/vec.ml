type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  v.data.(i)

let clear v = v.len <- 0

let truncate v n = if n < v.len then v.len <- max 0 n

let push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let cap' = if cap = 0 then 8 else cap * 2 in
    let data' = Array.make cap' x in
    Array.blit v.data 0 data' 0 v.len;
    v.data <- data'
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let filter p v = List.filter p (to_list v)
