(* hwf-ckpt/1 journals: append-only JSONL, one flushed line per
   completed campaign cell, written and read through Hwf_obs.Json. *)

module Json = Hwf_obs.Json

let schema = Json.Schema.ckpt.tag

type t = { oc : out_channel; lock : Mutex.t }
type header = { campaign : string; cells : int }
type entry = { idx : int; key : string; payload : string }

let header_line ~campaign ~cells =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str schema); ("campaign", Json.Str campaign); ("cells", Json.Int cells) ])

let record_line ~idx ~key ~payload =
  Json.to_string
    (Json.Obj [ ("cell", Json.Int idx); ("key", Json.Str key); ("payload", Json.Str payload) ])

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
    match
      (Json.int_member "cell" v, Json.string_member "key" v, Json.string_member "payload" v)
    with
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

(* ---- open / write ---- *)

let create ~path ~campaign ~cells =
  let oc = open_out path in
  output_string oc (header_line ~campaign ~cells);
  output_char oc '\n';
  flush oc;
  { oc; lock = Mutex.create () }

let append ~path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { oc; lock = Mutex.create () }

let open_ ~path ~campaign ~cells ~resume =
  if not resume then Ok (create ~path ~campaign ~cells, [])
  else if not (Sys.file_exists path) then Ok (create ~path ~campaign ~cells, [])
  else
    match load ~path with
    | Error msg -> Error msg
    | Ok (hdr, entries) ->
      if hdr.campaign <> campaign then
        Error
          (Printf.sprintf
             "%s: checkpoint is for campaign %S, refusing to resume campaign %S" path
             hdr.campaign campaign)
      else if hdr.cells <> cells then
        Error
          (Printf.sprintf
             "%s: checkpoint has %d cells, campaign has %d — parameters changed" path
             hdr.cells cells)
      else Ok (append ~path, entries)

let record t ~idx ~key ~payload =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc (record_line ~idx ~key ~payload);
      output_char t.oc '\n';
      flush t.oc)

let close t = close_out t.oc

(* ---- payload codec ---- *)

let strip_prefix ~prefix s =
  let np = String.length prefix and ns = String.length s in
  if ns >= np && String.sub s 0 np = prefix then Some (String.sub s np (ns - np))
  else None

let cut ~sep s =
  let n = String.length s and m = String.length sep in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let int_field key part =
  Option.bind (strip_prefix ~prefix:(key ^ "=") part) int_of_string_opt

let pids_to_string pids = String.concat " " (List.map string_of_int pids)

let pids_of_string s =
  let ps = if s = "" then [] else List.map int_of_string_opt (String.split_on_char ' ' s) in
  if List.mem None ps then None else Some (List.map Option.get ps)
