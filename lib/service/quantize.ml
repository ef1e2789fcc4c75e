let default_grid = 0.05

let check_grid g =
  if Float.is_finite g && g > 0.0 && g <= 1.0 then Ok g
  else
    Error
      (Printf.sprintf "grid resolution must be finite and in (0, 1], got %g" g)

let log_step grid =
  match check_grid grid with
  | Ok g -> log (1.0 +. g)
  | Error msg -> invalid_arg ("Quantize: " ^ msg)

let bucket ~grid v =
  let step = log_step grid in
  int_of_float (Float.round (log v /. step))

(* The token of [v] on the grid of log-step [step]. *)
let add_token buf ~step v =
  match Float.classify_float v with
  | FP_nan -> Buffer.add_string buf "nan"
  | FP_infinite -> Buffer.add_string buf (if v > 0.0 then "inf" else "-inf")
  | FP_zero | FP_subnormal -> Buffer.add_char buf 'z'
  | FP_normal ->
      let mag = Float.abs v in
      Buffer.add_string buf (if v > 0.0 then "b" else "-b");
      Stochobs.Json.add_int buf (int_of_float (Float.round (log mag /. step)))

(* Validate the grid even on the paths that never divide by it, so a
   bad server configuration fails loudly on the first key built. *)
let quantize ~grid v =
  let step = log_step grid in
  let buf = Buffer.create 8 in
  add_token buf ~step v;
  Buffer.contents buf

(* Built piece by piece: a cache hit pays for its key, and Printf
   would cost more than the rest of it. *)
let key ~grid ~family ~params ~model ~strategy ~m ~n ~disc_n ~max_evaluations
    ~seed ~count ~exact =
  let step = log_step grid in
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let token name v = add name; add_token buf ~step v in
  let int name i = add name; Stochobs.Json.add_int buf i in
  add (String.lowercase_ascii family);
  List.iter
    (fun (name, v) ->
      add "|";
      add name;
      token "=" v)
    params;
  let { Stochastic_core.Cost_model.alpha; beta; gamma } = model in
  token "|alpha=" alpha;
  token "|beta=" beta;
  token "|gamma=" gamma;
  add "|s=";
  add (String.lowercase_ascii strategy);
  int "|m=" m;
  int "|n=" n;
  int "|k=" disc_n;
  int "|e=" max_evaluations;
  int "|seed=" seed;
  int "|count=" count;
  add "|exact=";
  add (string_of_bool exact);
  Buffer.contents buf
