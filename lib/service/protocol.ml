module J = Stochobs.Json

type dist_spec =
  | Named of string
  | Lognormal of { mu : float; sigma : float }
  | Tenant of string

type model_spec =
  | Hpc
  | Affine of { alpha : float; beta : float; gamma : float }

type budget_spec = {
  m : int option;
  n : int option;
  disc_n : int option;
  max_seconds : float option;
  max_evaluations : int option;
}

let empty_budget =
  { m = None; n = None; disc_n = None; max_seconds = None;
    max_evaluations = None }

type solve = {
  dist : dist_spec;
  model : model_spec;
  strategy : string;
  budget : budget_spec;
  seed : int option;
  count : int;
  exact : bool;
}

type request =
  | Solve of solve
  | Fit of { tenant : string; samples : float array }
  | Stats
  | Metrics
  | Shutdown

type error = { code : int; label : string; detail : string }

let label_of_code = function
  | 2 -> "usage"
  | 4 -> "invalid-distribution"
  | 5 -> "non-convergent"
  | 6 -> "budget-exhausted"
  | 7 -> "invalid-parameter"
  | _ -> "error"

let make_error code detail = { code; label = label_of_code code; detail }
let usage_error detail = make_error 2 detail
let invalid_distribution_error detail = make_error 4 detail
let budget_exhausted_error detail = make_error 6 detail

let error_of_solver e =
  make_error (Robust.Solver.exit_code e) (Robust.Solver.error_to_string e)

(* ------------------------------ parsing ---------------------------- *)

let to_num = function J.Num v -> Some v | _ -> None

let field name j = J.member name j
let num_field name j = Option.bind (field name j) to_num
let str_field name j = Option.bind (field name j) J.to_str
let int_field name j = Option.bind (field name j) J.to_int

let bool_field name j =
  match field name j with Some (J.Bool b) -> Some b | _ -> None

(* A tiny error-propagating bind keeps the field-by-field request
   assembly linear instead of a pyramid of matches. *)
let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let require name opt ~what =
  match opt with
  | Some v -> Ok v
  | None -> Error (usage_error (Printf.sprintf "missing %s field %S" what name))

(* Input hardening: a NaN or infinity in a numeric field can only be a
   client bug (JSON cannot even spell NaN; infinities arrive as
   overflowed literals like 1e999), and letting one through poisons
   cache keys and solver budgets. Reject at the parse boundary with
   the usage code instead. *)
let finite name v ~what =
  if Float.is_finite v then Ok v
  else
    Error
      (usage_error
         (Printf.sprintf "%s field %S must be finite, got %g" what name v))

let require_finite name opt ~what =
  let* v = require name opt ~what in
  finite name v ~what

let parse_dist j =
  match field "dist" j with
  | None -> Error (usage_error "missing solve field \"dist\"")
  | Some spec -> (
      match (str_field "name" spec, str_field "tenant" spec,
             str_field "family" spec) with
      | Some name, _, _ -> Ok (Named name)
      | None, Some tenant, _ -> Ok (Tenant tenant)
      | None, None, Some family -> (
          match String.lowercase_ascii family with
          | "lognormal" ->
              let* mu = require_finite "mu" (num_field "mu" spec) ~what:"dist" in
              let* sigma =
                require_finite "sigma" (num_field "sigma" spec) ~what:"dist"
              in
              Ok (Lognormal { mu; sigma })
          | other ->
              Error
                (usage_error
                   (Printf.sprintf
                      "unsupported dist family %S (only \"lognormal\" takes \
                       explicit parameters; use {\"name\": ...} for the \
                       registry)"
                      other)))
      | None, None, None ->
          Error
            (usage_error
               "dist must carry \"name\", \"tenant\" or \"family\""))

let parse_model j =
  match field "model" j with
  | None -> Ok (Affine { alpha = 1.0; beta = 0.0; gamma = 0.0 })
  | Some (J.Str s) -> (
      match String.lowercase_ascii s with
      | "hpc" | "neuro-hpc" -> Ok Hpc
      | other ->
          Error
            (usage_error
               (Printf.sprintf "unknown model name %S (use \"hpc\")" other)))
  | Some spec ->
      let default name fallback =
        match num_field name spec with
        | None -> Ok fallback
        | Some v -> finite name v ~what:"model"
      in
      let* alpha = default "alpha" 1.0 in
      let* beta = default "beta" 0.0 in
      let* gamma = default "gamma" 0.0 in
      Ok (Affine { alpha; beta; gamma })

let parse_budget j =
  match field "budget" j with
  | None -> Ok empty_budget
  | Some spec ->
      let* max_seconds =
        match num_field "max_seconds" spec with
        | None -> Ok None
        | Some v ->
            let* v = finite "max_seconds" v ~what:"budget" in
            Ok (Some v)
      in
      Ok
        {
          m = int_field "m" spec;
          n = int_field "n" spec;
          disc_n = int_field "disc_n" spec;
          max_seconds;
          max_evaluations = int_field "max_evaluations" spec;
        }

let max_count = 10_000

let parse_solve j =
  let* dist = parse_dist j in
  let* model = parse_model j in
  let* budget = parse_budget j in
  let strategy = Option.value (str_field "strategy" j) ~default:"cascade" in
  let count = Option.value (int_field "count" j) ~default:10 in
  let* () =
    if count >= 1 && count <= max_count then Ok ()
    else
      Error
        (usage_error
           (Printf.sprintf "count must be in [1, %d], got %d" max_count count))
  in
  let exact = Option.value (bool_field "exact" j) ~default:false in
  Ok (Solve { dist; model; strategy; budget; seed = int_field "seed" j;
              count; exact })

let parse_fit j =
  let* tenant = require "tenant" (str_field "tenant" j) ~what:"fit" in
  let* samples_json = require "samples" (field "samples" j) ~what:"fit" in
  let* items =
    match J.to_list samples_json with
    | Some l -> Ok l
    | None -> Error (usage_error "fit field \"samples\" must be an array")
  in
  let rec collect acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | item :: rest -> (
        match to_num item with
        | Some v when Float.is_finite v -> collect (v :: acc) rest
        | Some _ ->
            Error (usage_error "fit samples must all be finite numbers")
        | None -> Error (usage_error "fit samples must all be numbers"))
  in
  let* samples = collect [] items in
  Ok (Fit { tenant; samples })

let parse_request line =
  match J.of_string line with
  | Error msg -> Error (None, usage_error ("unparseable request: " ^ msg))
  | Ok (J.Obj _ as j) -> (
      let id = field "id" j in
      match str_field "kind" j with
      | None -> Error (id, usage_error "missing request field \"kind\"")
      | Some kind -> (
          let result =
            match String.lowercase_ascii kind with
            | "solve" -> parse_solve j
            | "fit" -> parse_fit j
            | "stats" -> Ok Stats
            | "metrics" -> Ok Metrics
            | "shutdown" -> Ok Shutdown
            | other ->
                Error
                  (usage_error
                     (Printf.sprintf
                        "unknown request kind %S (use solve, fit, stats, \
                         metrics, shutdown)"
                        other))
          in
          match result with
          | Ok req -> Ok (id, req)
          | Error e -> Error (id, e)))
  | Ok _ -> Error (None, usage_error "request must be a JSON object")

(* ----------------------------- responses --------------------------- *)

type solved = {
  dist_name : string;
  tier : string;
  degraded : bool;
  head : float array;
  cost : float;
  normalized : float;
}

(* Journal persistence codec. Finite floats ride as JSON numbers
   (%.17g round-trips a double exactly, so recovered entries are
   bit-identical); the non-finite values JSON cannot spell are encoded
   as the same tokens {!Quantize.quantize} uses. *)

let float_to_json v =
  match Float.classify_float v with
  | FP_nan -> J.Str "nan"
  | FP_infinite -> J.Str (if v > 0.0 then "inf" else "-inf")
  | FP_normal | FP_subnormal | FP_zero -> J.Num v

let float_of_json = function
  | J.Num v -> Some v
  | J.Str "nan" -> Some Float.nan
  | J.Str "inf" -> Some Float.infinity
  | J.Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let solved_to_json s =
  J.Obj
    [
      ("dist", J.Str s.dist_name);
      ("tier", J.Str s.tier);
      ("degraded", J.Bool s.degraded);
      ("head", J.Arr (Array.to_list (Array.map float_to_json s.head)));
      ("cost", float_to_json s.cost);
      ("normalized", float_to_json s.normalized);
    ]

let solved_of_json j =
  let missing name = Error (Printf.sprintf "solved record lacks %S" name) in
  let* dist_name =
    match Option.bind (field "dist" j) J.to_str with
    | Some s -> Ok s
    | None -> missing "dist"
  in
  let* tier =
    match Option.bind (field "tier" j) J.to_str with
    | Some s -> Ok s
    | None -> missing "tier"
  in
  let* degraded =
    match field "degraded" j with
    | Some (J.Bool b) -> Ok b
    | _ -> missing "degraded"
  in
  let* head_items =
    match Option.bind (field "head" j) J.to_list with
    | Some l -> Ok l
    | None -> missing "head"
  in
  let rec floats acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | item :: rest -> (
        match float_of_json item with
        | Some v -> floats (v :: acc) rest
        | None -> Error "solved head holds a non-number")
  in
  let* head = floats [] head_items in
  let* cost =
    match Option.bind (field "cost" j) float_of_json with
    | Some v -> Ok v
    | None -> missing "cost"
  in
  let* normalized =
    match Option.bind (field "normalized" j) float_of_json with
    | Some v -> Ok v
    | None -> missing "normalized"
  in
  Ok { dist_name; tier; degraded; head; cost; normalized }

let with_id id fields =
  match id with Some id -> ("id", id) :: fields | None -> fields

let render fields = J.to_string ~indent:false (J.Obj fields)

(* A rendered object splices: [render (a @ b)] is [render a] without
   its closing brace, a comma, and [render b] without its opening one. *)
let solved_tail solved =
  let r =
    render
      [
        ("dist", J.Str solved.dist_name);
        ("tier", J.Str solved.tier);
        ("degraded", J.Bool solved.degraded);
        ("sequence", J.Arr (Array.to_list (Array.map (fun v -> J.Num v) solved.head)));
        ("cost", J.Num solved.cost);
        ("normalized", J.Num solved.normalized);
      ]
  in
  String.sub r 1 (String.length r - 2)

(* Written straight into one buffer: [render] of the whole object, the
   tail spliced in (pinned against it in test_service). *)
let solve_response ~id ~cached ~key ~tail =
  let buf = Buffer.create (String.length key + String.length tail + 80) in
  Buffer.add_char buf '{';
  Option.iter
    (fun id ->
      Buffer.add_string buf "\"id\": ";
      J.add buf id;
      Buffer.add_char buf ',')
    id;
  Buffer.add_string buf "\"ok\": true,\"kind\": \"solve\",\"cached\": ";
  Buffer.add_string buf (if cached then "true" else "false");
  Buffer.add_string buf ",\"key\": ";
  J.add_str buf key;
  Buffer.add_char buf ',';
  Buffer.add_string buf tail;
  Buffer.add_char buf '}';
  Buffer.contents buf

let fit_response ~id ~tenant (fit : Distributions.Fitting.lognormal_fit) =
  render
    (with_id id
       [
         ("ok", J.Bool true);
         ("kind", J.Str "fit");
         ("tenant", J.Str tenant);
         ("mu", J.Num fit.mu);
         ("sigma", J.Num fit.sigma);
         ("sample_mean", J.Num fit.sample_mean);
         ("sample_std", J.Num fit.sample_std);
         ("ks", J.Num fit.ks);
         ("n", J.Num (float_of_int fit.n));
       ])

let stats_response ~id stats =
  render (with_id id [ ("ok", J.Bool true); ("kind", J.Str "stats"); ("stats", stats) ])

let metrics_response ~id ~exposition =
  render
    (with_id id
       [
         ("ok", J.Bool true);
         ("kind", J.Str "metrics");
         ("content_type", J.Str "text/plain; version=0.0.4");
         ("exposition", J.Str exposition);
       ])

let shutdown_response ~id =
  render (with_id id [ ("ok", J.Bool true); ("kind", J.Str "shutdown") ])

let error_response ~id { code; label; detail } =
  render
    (with_id id
       [
         ("ok", J.Bool false);
         ("code", J.Num (float_of_int code));
         ("error", J.Str label);
         ("detail", J.Str detail);
       ])
