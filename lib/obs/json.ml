type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_char buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
  | c -> Buffer.add_char buf c

(* Most strings need no escape: they are copied whole. *)
let escape buf s =
  let n = String.length s in
  let rec plain i =
    i >= n
    ||
    let c = s.[i] in
    c <> '"' && c <> '\\' && Char.code c >= 0x20 && plain (i + 1)
  in
  if plain 0 then Buffer.add_string buf s else String.iter (escape_char buf) s

(* The digits come from -|i|, which exists for every int, min_int
   included. *)
let add_int buf i =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.chr (48 - (n mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char buf '-';
    digits i
  end
  else digits (-i)

(* The runtime's float printer, which Printf's ["%.17g"] calls after
   building the C format string anew on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Numbers print as Printf's ["%.0f"] (integers below 1e15 in
   magnitude) or ["%.17g"] would print them, without Printf's format
   interpretation, which cost more than the rest of a trace span: the
   conversion to int is exact in that range, and only -0 needs its sign
   put back. *)
let add_num buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    let i = int_of_float v in
    if i = 0 && Float.sign_bit v then Buffer.add_string buf "-0" else add_int buf i
  else Buffer.add_string buf (format_float "%.17g" v)

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> add_num buf v
    | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\": ";
            go (depth + 1) v)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

exception Parse_fail of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next_is c = !pos < n && s.[!pos] = c in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c = if next_is c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* A string body with escapes, from just after its opening quote. *)
  let parse_escaped () =
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* ASCII only — enough for the paths and rule ids we
                     write; anything else round-trips as '?'. *)
                  Buffer.add_char buf
                    (if code < 0x80 then Char.chr code else '?')
              | _ -> fail "unknown escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_string () =
    expect '"';
    (* Most strings hold no escape: take them whole. *)
    let rec plain i = if i < n && s.[i] <> '"' && s.[i] <> '\\' then plain (i + 1) else i in
    let stop = plain !pos in
    if stop < n && s.[stop] = '"' then begin
      let v = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      v
    end
    else parse_escaped ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        advance ();
        skip_ws ();
        if next_is '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            if next_is ',' then begin
              advance ();
              fields_loop ()
            end
            else if next_is '}' then advance ()
            else fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if next_is ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            if next_is ',' then begin
              advance ();
              items_loop ()
            end
            else if next_is ']' then advance ()
            else fail "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* [String.equal], not the polymorphic compare of [List.assoc_opt]: a
   request's fields are looked up a dozen times per parse. *)
let member key = function
  | Obj fields ->
      let rec find = function
        | [] -> None
        | (k, v) :: rest -> if String.equal k key then Some v else find rest
      in
      find fields
  | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
