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

(* Top-level rather than local, like the helpers below: a local
   function that closes over its arguments is allocated on every call,
   and trace records print a dozen strings and numbers each. *)
let rec plain s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && Char.code c >= 0x20 && plain s (i + 1)

(* Most strings need no escape: they are copied whole. *)
let escape buf s =
  if plain s 0 then Buffer.add_string buf s else String.iter (escape_char buf) s

let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* The digits come from -|i|, which exists for every int, min_int
   included. *)
let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* The runtime's float printer, which Printf's ["%.17g"] calls after
   building the C format string anew on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for 0 <= k <= 20, each literal exact. *)
let pow10 = function
  | 0 -> 1e0 | 1 -> 1e1 | 2 -> 1e2 | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6
  | 7 -> 1e7 | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | 12 -> 1e12
  | 13 -> 1e13 | 14 -> 1e14 | 15 -> 1e15 | 16 -> 1e16 | 17 -> 1e17 | 18 -> 1e18
  | 19 -> 1e19 | _ -> 1e20

(* The 17 significant digits ["%.17g"] prints for [a], 1e-4 <= a <
   1e15, and their decimal exponent x, packed as [n * 32 + x + 5];
   [-1] when [tries] guesses of x all miss. The product a 10^(16 - x)
   is [hi + lo] exactly ([lo] by an fma), and once [hi >= 2^53] it is
   an integer: the digits are [hi + lo] rounded half to even, as the C
   library rounds. A wrong x shows as a digit count off by one. *)
let rec digits17 a x tries =
  if tries = 0 || x < -4 || x > 16 then -1
  else
    let p = pow10 (16 - x) in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    if hi < 9007199254740992.0 then digits17 a (x - 1) (tries - 1)
    else
      let f = Float.floor lo in
      let half = f +. 0.5 in
      let n = int_of_float hi + int_of_float f in
      let n = if lo > half then n + 1 else if lo < half then n else n + (n land 1) in
      if n >= 100_000_000_000_000_000 then digits17 a (x + 1) (tries - 1)
      else if n < 10_000_000_000_000_000 then digits17 a (x - 1) (tries - 1)
      else (n * 32) + x + 5

let rec fill_digits d i n =
  if i >= 0 then begin
    Bytes.unsafe_set d i (Char.unsafe_chr (48 + (n mod 10)));
    fill_digits d (i - 1) (n / 10)
  end

(* The last digit that is not a trailing zero. *)
let rec last_digit d i = if i > 0 && Bytes.get d i = '0' then last_digit d (i - 1) else i

(* ["%.17g"] of [v] when it prints in fixed notation, 1e-4 <= |v| <
   1e15, without the C library's multi-precision printer, which costs
   0.5 us a number, most of a trace span. [false] outside that
   range. *)
let add_fixed17 buf v =
  let a = Float.abs v in
  let packed =
    if a >= 1e-4 && a < 1e15 then digits17 a (int_of_float (Float.floor (Float.log10 a))) 3
    else -1
  in
  packed >= 0
  &&
  let n = packed / 32 and x = (packed land 31) - 5 in
  let d = Bytes.create 17 in
  fill_digits d 16 n;
  (* %g drops the fraction's trailing zeros, and a bare point. *)
  let last = last_digit d 16 in
  if v < 0.0 then Buffer.add_char buf '-';
  if x >= 0 then begin
    Buffer.add_subbytes buf d 0 (x + 1);
    if last > x then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf d (x + 1) (last - x)
    end
  end
  else begin
    Buffer.add_string buf "0.";
    for _ = 1 to -x - 1 do Buffer.add_char buf '0' done;
    Buffer.add_subbytes buf d 0 (last + 1)
  end;
  true

(* Numbers print as Printf's ["%.0f"] (integers below 1e15 in
   magnitude) or ["%.17g"] would print them, without Printf's format
   interpretation, which cost more than the rest of a trace span: the
   conversion to int is exact in that range, and only -0 needs its sign
   put back. *)
let add_num buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    let i = int_of_float v in
    if i = 0 && Float.sign_bit v then Buffer.add_string buf "-0" else add_int buf i
  else if not (add_fixed17 buf v) then Buffer.add_string buf (format_float "%.17g" v)

let add_str buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let write ~indent buf t =
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
    | Str s -> add_str buf s
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
            add_str buf k;
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t

let add buf t = write ~indent:false buf t

let to_string ?(indent = true) t =
  let buf = Buffer.create 256 in
  write ~indent buf t;
  Buffer.contents buf

exception Parse_fail of int * string

(* The parser's cursor. The functions below take it explicitly rather
   than closing over it: a request line is parsed on every serve hit,
   and a dozen closures per parse were a third of its allocation. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Parse_fail (c.pos, msg))
let next_is c ch = c.pos < c.n && c.s.[c.pos] = ch

let rec skip_ws c =
  if c.pos < c.n then
    match c.s.[c.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let expect c ch = if next_is c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let len = String.length word in
  if c.pos + len <= c.n && String.sub c.s c.pos len = word then begin
    c.pos <- c.pos + len;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* A string body with escapes, from just after its opening quote. *)
let parse_escaped c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= c.n then fail c "unterminated string"
    else
      match c.s.[c.pos] with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          c.pos <- c.pos + 1;
          if c.pos >= c.n then fail c "unterminated escape";
          let ch = c.s.[c.pos] in
          c.pos <- c.pos + 1;
          (match ch with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if c.pos + 4 > c.n then fail c "truncated \\u escape";
              let hex = String.sub c.s c.pos 4 in
              c.pos <- c.pos + 4;
              let code = try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape" in
              (* ASCII only — enough for the paths and rule ids we
                 write; anything else round-trips as '?'. *)
              Buffer.add_char buf (if code < 0x80 then Char.chr code else '?')
          | _ -> fail c "unknown escape");
          go ()
      | ch ->
          c.pos <- c.pos + 1;
          Buffer.add_char buf ch;
          go ()
  in
  go ();
  Buffer.contents buf

let parse_string c =
  expect c '"';
  (* Most strings hold no escape: take them whole. *)
  let rec plain i = if i < c.n && c.s.[i] <> '"' && c.s.[i] <> '\\' then plain (i + 1) else i in
  let stop = plain c.pos in
  if stop < c.n && c.s.[stop] = '"' then begin
    let v = String.sub c.s c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    v
  end
  else parse_escaped c

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* [-]d..d with at most 15 digits is an int below 2^53, so
   [float_of_int] gives the bits [float_of_string] would; -1 when
   [s.[i .. j-1]] is anything else. *)
let small_int s i j =
  let neg = i < j && s.[i] = '-' in
  let i = if neg then i + 1 else i in
  let rec go k acc =
    if k >= j then acc
    else match s.[k] with '0' .. '9' as d -> go (k + 1) ((acc * 10) + Char.code d - 48) | _ -> -1
  in
  if j - i < 1 || j - i > 15 then -1 else go i 0

let parse_number c =
  let start = c.pos in
  while c.pos < c.n && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let k = small_int c.s start c.pos in
  if k > 0 then Num (float_of_int (if c.s.[start] = '-' then -k else k))
  else
    let text = String.sub c.s start (c.pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> fail c (Printf.sprintf "bad number %S" text)

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match c.s.[c.pos] with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if next_is c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (fields c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if next_is c ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else Arr (items c [])
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> parse_number c

and fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  let acc = (k, v) :: acc in
  skip_ws c;
  if next_is c ',' then begin
    c.pos <- c.pos + 1;
    fields c acc
  end
  else if next_is c '}' then begin
    c.pos <- c.pos + 1;
    List.rev acc
  end
  else fail c "expected ',' or '}'"

and items c acc =
  let v = parse_value c in
  let acc = v :: acc in
  skip_ws c;
  if next_is c ',' then begin
    c.pos <- c.pos + 1;
    items c acc
  end
  else if next_is c ']' then begin
    c.pos <- c.pos + 1;
    List.rev acc
  end
  else fail c "expected ',' or ']'"

let of_string s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
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
