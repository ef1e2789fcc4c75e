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
