type t =
  | Read of string
  | Write of string
  | Rmw of { var : string; kind : string }
  | Local of string

let read v = Read v
let write v = Write v
let rmw ~var ~kind = Rmw { var; kind }
let local l = Local l

let var = function
  | Read v | Write v | Rmw { var = v; _ } -> Some v
  | Local _ -> None

let pp ppf = function
  | Read v -> Fmt.pf ppf "read %s" v
  | Write v -> Fmt.pf ppf "write %s" v
  | Rmw { var; kind } -> Fmt.pf ppf "%s %s" kind var
  | Local l -> Fmt.pf ppf "local %s" l

let equal a b =
  match (a, b) with
  | Read x, Read y | Write x, Write y | Local x, Local y -> String.equal x y
  | Rmw { var = v1; kind = k1 }, Rmw { var = v2; kind = k2 } ->
    String.equal v1 v2 && String.equal k1 k2
  | (Read _ | Write _ | Rmw _ | Local _), _ -> false
