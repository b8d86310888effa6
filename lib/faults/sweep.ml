let crash_points ?(stride = 1) ~victims ~solo () =
  if stride <= 0 then invalid_arg "Sweep.crash_points: stride must be positive";
  List.concat_map
    (fun victim ->
      let limit = solo.(victim) in
      let rec points after acc =
        if after > limit then List.rev acc
        else points (after + stride) (Plan.crash_at ~victim ~after :: acc)
      in
      points 0 [])
    victims

let crash_pairs ?(stride = 2) ~victims ~solo () =
  if stride <= 0 then invalid_arg "Sweep.crash_pairs: stride must be positive";
  let rec pairs = function
    | [] -> []
    | v :: rest -> List.map (fun w -> (v, w)) rest @ pairs rest
  in
  List.concat_map
    (fun (v, w) ->
      let pts victim =
        let limit = solo.(victim) in
        let rec go after acc = if after > limit then List.rev acc else go (after + stride) (after :: acc) in
        go 0 []
      in
      List.concat_map
        (fun a ->
          List.map
            (fun b ->
              Plan.crashes [ { Plan.victim = v; after = a }; { Plan.victim = w; after = b } ])
            (pts w))
        (pts v))
    (pairs victims)

let cost_plans ~seeds =
  Plan.(with_cost Slow none) :: List.map (fun s -> Plan.(with_cost (Jitter s) none)) seeds

let chaos ~seeds ~n ~max_after = List.map (fun seed -> Plan.chaos ~seed ~n ~max_after) seeds
