type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let fixed d x = if Float.is_finite x then Num (Printf.sprintf "%.*f" d x) else Null
let option f = function None -> Null | Some v -> f v

(* ---- printing ---- *)

(* The one JSON string escaper. *)
let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code ch)
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

(* [spaced]: the ", " / ": " separators of the pretty layout's inline
   rows; otherwise the compact "," / ":". *)
let rec add ~spaced b v =
  let sep () = Buffer.add_string b (if spaced then ", " else ",") in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num lit -> Buffer.add_string b lit
  | Str s -> add_str b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then sep ();
        add ~spaced b v)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then sep ();
        add_str b k;
        Buffer.add_string b (if spaced then ": " else ":");
        add ~spaced b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  add ~spaced:false b v;
  Buffer.contents b

let add_line b v =
  add ~spaced:false b v;
  Buffer.add_char b '\n'

let pretty v =
  let b = Buffer.create 1024 in
  (match v with
  | Obj fields ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b "  ";
        add_str b k;
        Buffer.add_string b ": ";
        match v with
        | List items ->
          Buffer.add_string b "[\n";
          List.iteri
            (fun j item ->
              if j > 0 then Buffer.add_string b ",\n";
              Buffer.add_string b "    ";
              add ~spaced:true b item)
            items;
          if items <> [] then Buffer.add_char b '\n';
          Buffer.add_string b "  ]"
        | v -> add ~spaced:true b v)
      fields;
    Buffer.add_string b "\n}"
  | v -> add ~spaced:true b v);
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing ---- *)

exception Bad of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail "unexpected token"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let hex = String.sub s !pos 4 in
    if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) hex)
    then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let code = hex4 () in
          let code =
            if code >= 0xD800 && code < 0xDC00 && !pos + 6 <= n
               && String.sub s !pos 2 = "\\u"
            then begin
              let save = !pos in
              pos := !pos + 2;
              let lo = hex4 () in
              if lo >= 0xDC00 && lo < 0xE000 then
                0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
              else begin
                pos := save;
                code
              end
            end
            else code
          in
          Buffer.add_utf_8_uchar b
            (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
        | _ -> fail (Printf.sprintf "bad escape \\%C" e));
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d then fail "expected digit"
    in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      integral := false;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match (if !integral then int_of_string_opt lit else None) with
    | Some v -> Int v
    | None -> Num lit
  in
  (* The members of an object or the items of an array, after its
     opening bracket. *)
  let seq close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          go (x :: acc)
        | Some c when c = close ->
          incr pos;
          List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      Obj
        (seq '}' (fun () ->
             skip_ws ();
             let k = parse_string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' ->
      incr pos;
      List (seq ']' value)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> fail "unexpected character"
    | None -> fail "unexpected end of input"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let string_member k v = match member k v with Some (Str s) -> Some s | _ -> None
let int_member k v = match member k v with Some (Int i) -> Some i | _ -> None
let bool_member k v = match member k v with Some (Bool b) -> Some b | _ -> None

(* ---- schemas ---- *)

module Schema = struct
  type shape =
    | Lines of { row : string; header : string list; restart : bool; partial_tail : bool }
    | Whole of { array : string; header : string list; fields : string list }

  type t = { tag : string; shape : shape }

  let lines ?(header = []) ?(restart = false) ?(partial_tail = false) tag row =
    { tag; shape = Lines { row; header; restart; partial_tail } }

  let whole ?(header = []) tag array fields = { tag; shape = Whole { array; header; fields } }
  let trace = lines "hwf-trace/1" "ev"
  let metrics = lines "hwf-metrics/1" "m"
  let analyze = lines "hwf-analyze/1" "a"

  (* The lint report concatenates one header-plus-rows block per
     subject. *)
  let lint = lines ~restart:true "hwf-lint/1" "l"

  (* Journals are flushed per line, so a SIGKILL can cut only the last
     one; the loader drops it (Hwf_resil.Checkpoint). *)
  let ckpt = lines ~header:[ "campaign"; "cells" ] ~partial_tail:true "hwf-ckpt/2" "cell"

  (* [host] records the machine and mode that wrote a bench file, so
     numbers compare across commits: [nproc], [ocaml], [mode]. Version 2
     of the engine export added the [batched] column; version 2 of the
     sampler export replaced its [quick] member with [host]. *)
  let bench_engine =
    whole ~header:[ "host" ] "hwf-bench-engine/2" "cells"
      [ "n"; "processors"; "observer"; "batched"; "statements"; "seconds"; "stmts_per_sec" ]

  let bench_sched =
    whole ~header:[ "host" ] "hwf-bench-sched/2" "cells" [ "case"; "strategy"; "runs"; "found" ]

  let bench_faults =
    whole ~header:[ "host" ] "hwf-bench-faults/1" "subjects"
      [ "name"; "plans"; "passed"; "blocked"; "worst_own_steps"; "certified" ]

  let bench_par =
    whole ~header:[ "host" ] "hwf-bench-par/1" "cells"
      [ "name"; "units"; "par_seconds"; "seq_seconds"; "speedup"; "identical" ]

  let all =
    [ trace; metrics; analyze; lint; ckpt; bench_engine; bench_sched; bench_faults; bench_par ]

  let schema_of v =
    Option.bind (string_member "schema" v) (fun tag -> List.find_opt (fun s -> s.tag = tag) all)

  let got v =
    match member "schema" v with Some s -> to_string s | None -> "no \"schema\" member"

  let lacking fields v = List.find_opt (fun f -> member f v = None) fields

  let validate_whole contents =
    match of_string contents with
    | Error e -> Error ("neither JSONL nor whole-file JSON: " ^ e)
    | Ok doc -> (
      match schema_of doc with
      | None | Some { shape = Lines _; _ } ->
        Error ("whole-file JSON has no known schema (got " ^ got doc ^ ")")
      | Some { tag; shape = Whole { array; header; fields } } -> (
        match (lacking header doc, member array doc) with
        | Some f, _ -> Error (Printf.sprintf "%s lacks %S" tag f)
        | None, Some (List (_ :: _ as rows)) -> (
          let bad j = function
            | Obj _ as row ->
              Option.map (Printf.sprintf "%s[%d] lacks %S" array j) (lacking fields row)
            | _ -> Some (Printf.sprintf "%s[%d] is not a JSON object" array j)
          in
          match List.find_mapi bad rows with
          | Some e -> Error e
          | None -> Ok (Printf.sprintf "OK (%s, %d %s)" tag (List.length rows) array))
        | None, _ -> Error (Printf.sprintf "%s lacks a non-empty %S array" tag array)))

  let validate_lines head rest =
    match (head, schema_of head) with
    | Obj _, Some { tag; shape = Lines { row; header; restart; partial_tail } } -> (
      let last = List.length rest + 1 in
      let rec rows i = function
        | [] -> Ok ""
        | line :: more -> (
          match of_string line with
          | Error _ when partial_tail && i = last ->
            Ok "; partial trailing line dropped (crash-cut write)"
          | Error e -> Error (Printf.sprintf "line %d is not valid JSON: %s" i e)
          | Ok (Obj _ as r) ->
            if restart && string_member "schema" r = Some tag then rows (i + 1) more
            else if member row r = None then
              Error (Printf.sprintf "line %d lacks the %S discriminator" i row)
            else rows (i + 1) more
          | Ok _ -> Error (Printf.sprintf "line %d is not a JSON object" i))
      in
      match lacking header head with
      | Some f -> Error (Printf.sprintf "%s header lacks %S" tag f)
      | None ->
        Result.map
          (Printf.sprintf "OK (%s, %d rows%s)" tag (List.length rest))
          (rows 2 rest))
    | Obj _, _ -> Error ("line 1 has no known schema (got " ^ got head ^ ")")
    | _ -> Error "line 1 is not a JSON object"

  let validate contents =
    let lines = String.split_on_char '\n' contents in
    let lines = match List.rev lines with "" :: rev -> List.rev rev | _ -> lines in
    match lines with
    | [] -> Error "empty file"
    | first :: rest -> (
      match of_string first with
      | Ok head -> validate_lines head rest
      | Error _ -> validate_whole contents)

  let validate_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> validate contents
    | exception Sys_error e -> Error e
end
