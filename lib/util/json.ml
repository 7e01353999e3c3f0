(* A minimal JSON reader/writer, and the repo's only JSON writer:
   every document it emits — BENCH_* artefacts, profiles, advice,
   traces, checkpoints — is built as a [t] and rendered here.

   The repo's dependency set has no JSON library, so a small
   recursive-descent parser over the full JSON grammar is all that's
   needed.  Numbers keep their textual class: an integer literal
   parses to [Int], anything with a fraction or exponent to [Float] —
   so [parse (render v) = v] for every finite value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st.pos (Printf.sprintf "expected %c, found %c" c d)
  | None -> fail st.pos (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

(* Decode one codepoint to UTF-8 bytes; the artefacts are ASCII, this
   just keeps \u escapes from crashing the loader. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
      | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
      | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
        let hex = String.sub st.s st.pos 4 in
        let cp =
          try int_of_string ("0x" ^ hex)
          with _ -> fail st.pos (Printf.sprintf "bad \\u escape %s" hex)
        in
        st.pos <- st.pos + 4;
        add_utf8 buf cp;
        go ()
      | _ -> fail st.pos "bad escape")
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+') -> advance st; go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.s start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start (Printf.sprintf "bad number %s" text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> fail start (Printf.sprintf "bad number %s" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin advance st; Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; members ()
        | Some '}' -> advance st
        | _ -> fail st.pos "expected , or } in object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin advance st; Arr [] end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; elements ()
        | Some ']' -> advance st
        | _ -> fail st.pos "expected , or ] in array"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st.pos "trailing content after JSON value";
  v

let of_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* An integral float below 1e15 prints as "%.1f"; anything else as the
   shortest "%.Ng" text that reads back as the same float, with ".0"
   appended when that text would otherwise read back as an [Int]. *)
let float_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    let s = shortest 1 in
    if String.exists (function '.' | 'e' | 'n' | 'i' -> true | _ -> false) s then s
    else s ^ ".0"
  end

let fixed n x =
  let s = Printf.sprintf "%.*f" n x in
  match (n, int_of_string_opt s) with 0, Some i -> Int i | _ -> Float (float_of_string s)

let rec render_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_text f)
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        render_into buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        render_into buf v)
      fields;
    Buffer.add_char buf '}'

let render v =
  let buf = Buffer.create 256 in
  render_into buf v;
  Buffer.contents buf

(* Two-space-indented rendering, for artefacts meant to be read or
   diffed by humans (plain checkpoints).  Same grammar, so [parse]
   round-trips it identically to the compact form. *)
let rec render_pretty_into buf ~indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null | Bool _ | Int _ | Float _ | Str _ -> render_into buf v
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        render_pretty_into buf ~indent:(indent + 2) v)
      items;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\": ";
        render_pretty_into buf ~indent:(indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let render_pretty v =
  let buf = Buffer.create 256 in
  render_pretty_into buf ~indent:0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

(* Exception-raising variants for loaders of artefacts we wrote
   ourselves (checkpoints), where a shape mismatch is a hard error. *)

let get key j =
  match member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Json: missing key %S" key)

(* ------------------------------------------------------------------ *)
(* Zero-run elision (the checkpoint compact encoding)

   Large integer arrays in the documents the repo writes itself —
   memory images, ARFs, cache/predictor tables — are mostly zeros at
   production core counts.  [pack_arrays] rewrites every all-integer
   array whose elided form is strictly smaller into

     {"#z": [length, skip1, v1, skip2, v2, ...]}

   where each [skip] counts the zeros preceding the next non-zero
   value and trailing zeros are implied by [length].  The marker key
   "#z" cannot collide with a real field: no schema this repo emits
   uses it.  [unpack_arrays] is the exact inverse, so
   [unpack_arrays (pack_arrays v) = v] for any value whose objects
   avoid the marker key — packing is transparent to every accessor
   once the loader unpacks. *)

let pack_marker = "#z"

let zrun_encode items =
  (* [items] must be all-Int; returns None when elision would not
     shrink the array (2 tokens per non-zero value plus the length). *)
  let len = List.length items in
  let tokens = ref [] in
  let nonzeros = ref 0 in
  let skip = ref 0 in
  List.iter
    (fun v ->
      match v with
      | Int 0 -> incr skip
      | Int n ->
        incr nonzeros;
        tokens := Int n :: Int !skip :: !tokens;
        skip := 0
      | _ -> assert false)
    items;
  if 1 + (2 * !nonzeros) < len then
    Some (Obj [ (pack_marker, Arr (Int len :: List.rev !tokens)) ])
  else None

let all_ints = List.for_all (function Int _ -> true | _ -> false)

(* Run-length dedup for arbitrary arrays: consecutive structurally
   equal elements collapse to [count, value] token pairs.  This is
   what shrinks the non-integer bulk of a checkpoint — cache slot
   arrays full of the same empty line, ROB operand columns full of
   the same sentinel.  Applied after the children are packed, so runs
   of identical packed subtrees collapse too. *)
let rle_marker = "#r"

let rle_encode items =
  let len = List.length items in
  let runs =
    List.fold_left
      (fun acc v ->
        match acc with
        | (c, v') :: rest when v' = v -> (c + 1, v') :: rest
        | _ -> (1, v) :: acc)
      [] items
  in
  let r = List.length runs in
  if 2 * r < len then
    Some
      (Obj
         [
           ( rle_marker,
             Arr (List.concat_map (fun (c, v) -> [ Int c; v ]) (List.rev runs)) );
         ])
  else None

let rec pack_arrays = function
  | Arr items when List.length items >= 8 && all_ints items -> (
    match zrun_encode items with
    | Some packed -> packed
    | None -> (
      match rle_encode items with Some packed -> packed | None -> Arr items))
  | Arr items -> (
    let packed = List.map pack_arrays items in
    match rle_encode packed with Some p -> p | None -> Arr packed)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, pack_arrays v)) fields)
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> v

let zrun_decode tokens =
  match tokens with
  | Int len :: pairs ->
    if len < 0 then failwith "Json: malformed #z length";
    let out = Array.make len (Int 0) in
    let pos = ref 0 in
    let rec go = function
      | [] -> ()
      | Int skip :: Int v :: rest ->
        pos := !pos + skip;
        if skip < 0 || !pos >= len then failwith "Json: #z run out of bounds";
        out.(!pos) <- Int v;
        incr pos;
        go rest
      | _ -> failwith "Json: malformed #z tokens"
    in
    go pairs;
    Arr (Array.to_list out)
  | _ -> failwith "Json: malformed #z encoding"

let rec unpack_arrays = function
  | Obj [ (k, Arr tokens) ] when String.equal k pack_marker -> zrun_decode tokens
  | Obj [ (k, Arr tokens) ] when String.equal k rle_marker ->
    let rec go acc = function
      | [] -> Arr (List.concat (List.rev acc))
      | Int c :: v :: rest ->
        if c <= 0 then failwith "Json: malformed #r count";
        let v = unpack_arrays v in
        go (List.init c (fun _ -> v) :: acc) rest
      | _ -> failwith "Json: malformed #r tokens"
    in
    go [] tokens
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, unpack_arrays v)) fields)
  | Arr items -> Arr (List.map unpack_arrays items)
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> v

let int_exn = function Int n -> n | _ -> failwith "Json: expected integer"
let str_exn = function Str s -> s | _ -> failwith "Json: expected string"
let bool_exn = function Bool b -> b | _ -> failwith "Json: expected bool"
let list_exn = function Arr items -> items | _ -> failwith "Json: expected array"
let int_list_exn j = List.map int_exn (list_exn j)
let of_int_list l = Arr (List.map (fun n -> Int n) l)
let of_int_array a = Arr (Array.to_list (Array.map (fun n -> Int n) a))
let int_array_exn j = Array.of_list (int_list_exn j)
