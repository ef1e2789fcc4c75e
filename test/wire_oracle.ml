(* The forms the cache key, the solve response and JSON numbers had
   when Printf and a whole [Json.Obj] built them, before they were
   written piece by piece; kept as the oracles the hand-built forms are
   pinned to, byte for byte. *)

module J = Stochobs.Json

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let quantize ~grid v =
  let step = log (1.0 +. grid) in
  match Float.classify_float v with
  | FP_nan -> "nan"
  | FP_infinite -> if v > 0.0 then "inf" else "-inf"
  | FP_zero | FP_subnormal -> "z"
  | FP_normal ->
      let mag = Float.abs v in
      let idx = int_of_float (Float.round (log mag /. step)) in
      if v > 0.0 then Printf.sprintf "b%d" idx else Printf.sprintf "-b%d" idx

let key ~grid ~family ~params ~model ~strategy ~m ~n ~disc_n ~max_evaluations
    ~seed ~count ~exact =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (String.lowercase_ascii family);
  List.iter
    (fun (name, v) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Buffer.add_string buf (quantize ~grid v))
    params;
  let { Stochastic_core.Cost_model.alpha; beta; gamma } = model in
  Buffer.add_string buf
    (Printf.sprintf "|alpha=%s|beta=%s|gamma=%s" (quantize ~grid alpha)
       (quantize ~grid beta) (quantize ~grid gamma));
  Buffer.add_string buf
    (Printf.sprintf "|s=%s|m=%d|n=%d|k=%d|e=%d|seed=%d|count=%d|exact=%b"
       (String.lowercase_ascii strategy)
       m n disc_n max_evaluations seed count exact);
  Buffer.contents buf

let solve_response ~id ~cached ~key (solved : Stochserve.Protocol.solved) =
  let fields =
    [
      ("ok", J.Bool true);
      ("kind", J.Str "solve");
      ("cached", J.Bool cached);
      ("key", J.Str key);
      ("dist", J.Str solved.dist_name);
      ("tier", J.Str solved.tier);
      ("degraded", J.Bool solved.degraded);
      ("sequence", J.Arr (Array.to_list (Array.map (fun v -> J.Num v) solved.head)));
      ("cost", J.Num solved.cost);
      ("normalized", J.Num solved.normalized);
    ]
  in
  let fields = match id with Some id -> ("id", id) :: fields | None -> fields in
  J.to_string ~indent:false (J.Obj fields)

exception Parse_fail of int * string

(* The parser as it was before it took an explicit cursor: the oracle
   [Json.of_string] is pinned to, result and error message. *)

let json_of_string s =
  let open J in
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
