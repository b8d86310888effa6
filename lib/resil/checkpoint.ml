(* hwf-ckpt/1 journals: append-only JSONL, one flushed line per
   completed campaign cell. The JSON emitted here is flat (string/int
   values only), and the parser below handles exactly that shape — no
   external JSON dependency. *)

let schema = "hwf-ckpt/1"

type t = { oc : out_channel; lock : Mutex.t }
type header = { campaign : string; cells : int }
type entry = { idx : int; key : string; payload : string }

(* ---- emission (same escaping as Hwf_obs.Jsonl) ---- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let header_line ~campaign ~cells =
  Printf.sprintf "{\"schema\":\"%s\",\"campaign\":\"%s\",\"cells\":%d}" schema
    (escape campaign) cells

let record_line ~idx ~key ~payload =
  Printf.sprintf "{\"cell\":%d,\"key\":\"%s\",\"payload\":\"%s\"}" idx (escape key)
    (escape payload)

(* ---- a scanner for the flat objects we emit ---- *)

exception Bad of string

(* Parse one flat JSON object into (key, value) pairs, values being
   [`Str s] or [`Int n]. Raises [Bad] on anything else — which is how a
   truncated trailing line is detected and dropped by [load]. *)
let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %C at %d" c !pos))
  in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match line.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then raise (Bad "unterminated escape");
        (match line.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 >= n then raise (Bad "short \\u escape");
          let hex = String.sub line (!pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some _ | None -> raise (Bad "bad \\u escape"));
          pos := !pos + 4
        | c -> raise (Bad (Printf.sprintf "bad escape \\%C" c)));
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      advance ()
    done;
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "expected int at %d" start))
  in
  let fields = ref [] in
  skip_ws ();
  expect '{';
  skip_ws ();
  if peek () = Some '}' then advance ()
  else begin
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v =
        match peek () with
        | Some '"' -> `Str (parse_string ())
        | Some ('-' | '0' .. '9') -> `Int (parse_int ())
        | _ -> raise (Bad (Printf.sprintf "unsupported value at %d" !pos))
      in
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        members ()
      | Some '}' -> advance ()
      | _ -> raise (Bad "expected , or }")
    in
    members ()
  end;
  List.rev !fields

let field_str fields k =
  match List.assoc_opt k fields with
  | Some (`Str s) -> s
  | _ -> raise (Bad (Printf.sprintf "missing string field %S" k))

let field_int fields k =
  match List.assoc_opt k fields with
  | Some (`Int v) -> v
  | _ -> raise (Bad (Printf.sprintf "missing int field %S" k))

(* ---- load ---- *)

let read_all path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let load ~path =
  match read_all path with
  | exception Sys_error msg -> Error msg
  | contents ->
    let lines = String.split_on_char '\n' contents |> List.filter (fun l -> l <> "") in
    (match lines with
    | [] -> Error (path ^ ": empty checkpoint file")
    | head :: rest -> (
      let parse_header () =
        let fields = parse_flat head in
        let s = field_str fields "schema" in
        if s <> schema then
          raise (Bad (Printf.sprintf "schema %S, expected %S" s schema));
        { campaign = field_str fields "campaign"; cells = field_int fields "cells" }
      in
      match parse_header () with
      | exception Bad msg -> Error (Printf.sprintf "%s: bad header: %s" path msg)
      | hdr ->
        (* Records: stop at the first malformed line — writes are
           flushed per line, so only a trailing partial write can be
           malformed, and everything before it is intact. *)
        let entries = ref [] in
        (try
           List.iter
             (fun line ->
               let fields = parse_flat line in
               let e =
                 {
                   idx = field_int fields "cell";
                   key = field_str fields "key";
                   payload = field_str fields "payload";
                 }
               in
               entries := e :: !entries)
             rest
         with Bad _ -> ());
        (* Fold duplicates: last record for an idx wins, first
           occurrence keeps its position. *)
        let tbl = Hashtbl.create 64 in
        let order = ref [] in
        List.iter
          (fun e ->
            if not (Hashtbl.mem tbl e.idx) then order := e.idx :: !order;
            Hashtbl.replace tbl e.idx e)
          (List.rev !entries);
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
