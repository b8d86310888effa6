open Hwf_sim

module Iset = Set.Make (Int)

type info = {
  mutable readers : Iset.t;
  mutable writers : Iset.t;
  mutable rmw_kinds : string list;
  mutable peeks : int;
  mutable pokes : int;
  mutable instrumented : int;
}

type t = (string, info) Hashtbl.t

let info t var =
  match Hashtbl.find_opt t var with
  | Some i -> i
  | None ->
    let i =
      {
        readers = Iset.empty;
        writers = Iset.empty;
        rmw_kinds = [];
        peeks = 0;
        pokes = 0;
        instrumented = 0;
      }
    in
    Hashtbl.add t var i;
    i

let build (runs : Recorder.run list) =
  let t : t = Hashtbl.create 64 in
  List.iter
    (fun (r : Recorder.run) ->
      List.iter
        (fun ev ->
          match ev with
          | Trace.Stmt { pid; op; _ } -> (
            match op with
            | Op.Read v -> (info t v).readers <- Iset.add pid (info t v).readers
            | Op.Write v -> (info t v).writers <- Iset.add pid (info t v).writers
            | Op.Rmw { var; kind } ->
              let i = info t var in
              i.readers <- Iset.add pid i.readers;
              i.writers <- Iset.add pid i.writers;
              if not (List.mem kind i.rmw_kinds) then i.rmw_kinds <- kind :: i.rmw_kinds
            | Op.Local _ -> ())
          | Trace.Inv_begin _ | Trace.Inv_end _ | Trace.Set_priority _ | Trace.Axiom2_gate _ ->
            ())
        r.events;
      List.iter
        (fun (w : Recorder.window) ->
          List.iter
            (fun (a : Runtime.access) ->
              let i = info t a.var in
              if a.instrumentation then i.instrumented <- i.instrumented + 1
              else
                match a.kind with
                | Runtime.Peek -> i.peeks <- i.peeks + 1
                | Runtime.Poke -> i.pokes <- i.pokes + 1
                | Runtime.Read | Runtime.Write -> ())
            w.w_accesses)
        r.windows)
    runs;
  t

let writers t var =
  match Hashtbl.find_opt t var with
  | None -> []
  | Some i -> Iset.elements i.writers

let readers t var =
  match Hashtbl.find_opt t var with
  | None -> []
  | Some i -> Iset.elements i.readers

let written_by_other t ~var ~pid = List.exists (fun q -> q <> pid) (writers t var)

let vars t =
  Hashtbl.fold (fun v i acc -> (v, i) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
