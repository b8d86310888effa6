(* hwf-ckpt/2 journals: append-only JSONL, one flushed line per
   completed campaign cell, written and read through Hwf_obs.Json. *)

module Json = Hwf_obs.Json

let schema = Json.Schema.ckpt.tag

type header = { campaign : string; cells : int }
type entry = { idx : int; key : string; payload : Json.t }

type 'a t = {
  oc : out_channel;
  lock : Mutex.t;
  key : int -> string;
  encode : 'a -> Json.t;
  restored : 'a option array;
}

(* ---- load ---- *)

let parse_header line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok v -> (
    match
      (Json.string_member "schema" v, Json.string_member "campaign" v, Json.int_member "cells" v)
    with
    | Some s, _, _ when s <> schema -> Error (Printf.sprintf "schema %S, expected %S" s schema)
    | Some _, Some campaign, Some cells -> Ok { campaign; cells }
    | _ -> Error "expected string \"schema\" and \"campaign\" and int \"cells\"")

let parse_entry line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> (
    match (Json.int_member "cell" v, Json.string_member "key" v, Json.member "payload" v) with
    | Some idx, Some key, Some payload -> Some { idx; key; payload }
    | _ -> None)

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    let lines = String.split_on_char '\n' contents |> List.filter (fun l -> l <> "") in
    match lines with
    | [] -> Error (path ^ ": empty checkpoint file")
    | head :: rest -> (
      match parse_header head with
      | Error msg -> Error (Printf.sprintf "%s: bad header: %s" path msg)
      | Ok hdr ->
        (* Records: stop at the first malformed line — writes are
           flushed per line, so only a trailing partial write can be
           malformed, and everything before it is intact. *)
        let rec entries acc = function
          | [] -> List.rev acc
          | line :: more -> (
            match parse_entry line with
            | Some e -> entries (e :: acc) more
            | None -> List.rev acc)
        in
        (* Fold duplicates: last record for an idx wins, first
           occurrence keeps its position. *)
        let tbl = Hashtbl.create 64 in
        let order = ref [] in
        List.iter
          (fun e ->
            if not (Hashtbl.mem tbl e.idx) then order := e.idx :: !order;
            Hashtbl.replace tbl e.idx e)
          (entries [] rest);
        let entries = List.rev_map (fun idx -> Hashtbl.find tbl idx) !order in
        Ok (hdr, entries)))

(* ---- open / record ---- *)

let write_line oc v =
  output_string oc (Json.to_string v);
  output_char oc '\n';
  flush oc

let open_journal ~path ~resume ~campaign ~cells ~key ~encode ~decode =
  let restored = Array.make cells None in
  let journal oc = Ok { oc; lock = Mutex.create (); key; encode; restored } in
  if not (resume && Sys.file_exists path) then begin
    let oc = open_out path in
    write_line oc
      (Json.Obj
         [
           ("schema", Json.Str schema); ("campaign", Json.Str campaign); ("cells", Json.Int cells);
         ]);
    journal oc
  end
  else
    match load ~path with
    | Error msg -> Error msg
    | Ok (hdr, _) when hdr.campaign <> campaign ->
      Error
        (Printf.sprintf "%s: checkpoint is for campaign %S, refusing to resume campaign %S"
           path hdr.campaign campaign)
    | Ok (hdr, _) when hdr.cells <> cells ->
      Error
        (Printf.sprintf "%s: checkpoint has %d cells, campaign has %d — parameters changed"
           path hdr.cells cells)
    | Ok (_, entries) ->
      List.iter
        (fun e ->
          if e.idx >= 0 && e.idx < cells && e.key = key e.idx then
            restored.(e.idx) <- decode e.idx e.payload)
        entries;
      journal (open_out_gen [ Open_append; Open_creat ] 0o644 path)

let with_journal ?path ~resume ~campaign ~cells ~key ~encode ~decode f =
  match path with
  | None -> Ok (f None)
  | Some path ->
    Result.map
      (fun t -> Fun.protect ~finally:(fun () -> close_out t.oc) (fun () -> f (Some t)))
      (open_journal ~path ~resume ~campaign:(campaign ()) ~cells ~key ~encode ~decode)

let restored t i = t.restored.(i)

let record t i v =
  let line =
    Json.Obj [ ("cell", Json.Int i); ("key", Json.Str (t.key i)); ("payload", t.encode v) ]
  in
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> write_line t.oc line)

let stop_requested should_stop = Resil.interrupted () || should_stop ()

let cell journal ~should_stop i run =
  let restored = match journal with Some t -> t.restored.(i) | None -> None in
  match restored with
  | Some v -> { Resil.outcome = Resil.Ok_cell v; attempts = 1 }
  | None when stop_requested should_stop ->
    { Resil.outcome = Resil.Skipped "interrupted"; attempts = 0 }
  | None ->
    let c = run () in
    (match (journal, c.Resil.outcome) with
    | Some t, Resil.Ok_cell v when not (stop_requested should_stop) -> record t i v
    | _ -> ());
    c

(* ---- schedules ---- *)

let pids ps = Json.List (List.map (fun p -> Json.Int p) ps)

let pids_member ~n name v =
  match Json.member name v with
  | Some (Json.List items) ->
    List.fold_right
      (fun item acc ->
        match (item, acc) with
        | Json.Int p, Some ps when p >= 0 && p < n -> Some (p :: ps)
        | _ -> None)
      items (Some [])
  | _ -> None
