(* Deterministic, seeded per-node failure traces for the cluster
   engine. Each node owns an independent random stream split off a root
   seed, and its trace is an alternating sequence of uptimes (drawn
   from the configured interarrival model) and downtimes (exponential
   repair). Draws happen lazily, one per state transition, but because
   every node consumes only its own stream the trace of node [i] is a
   pure function of [(config, i)] — independent of how the engine
   interleaves events across nodes. *)

type model =
  | Exponential of { mtbf : float }
  | Weibull of { mtbf : float; shape : float }
  | Spot of { mtbf : float; burst_prob : float; burst_factor : float }

type config = { model : model; mean_repair : float; seed : int }

let check_mtbf name mtbf =
  (* [infinity] is a valid MTBF: the node never fails (rate 0). *)
  if Float.is_nan mtbf || mtbf <= 0.0 then
    invalid_arg (name ^ ": mtbf must be positive (infinity = never fails)")

let exponential ~mtbf =
  check_mtbf "Faults.exponential" mtbf;
  Exponential { mtbf }

let weibull ~mtbf ~shape =
  check_mtbf "Faults.weibull" mtbf;
  if not (Float.is_finite shape) || shape <= 0.0 then
    invalid_arg "Faults.weibull: shape must be positive and finite";
  Weibull { mtbf; shape }

type param_error = { field : string; value : float; detail : string }

let param_error_to_string e =
  Printf.sprintf "Faults.spot: %s = %g: %s" e.field e.value e.detail

(* Typed construction-time validation: a bad field names itself instead
   of silently generating a degenerate trace (or a cryptic sampler
   failure deep inside a simulation). *)
let spot_checked ?(burst_prob = 0.2) ?(burst_factor = 10.0) ~mtbf () =
  if Float.is_nan mtbf || mtbf <= 0.0 then
    Error
      {
        field = "mtbf";
        value = mtbf;
        detail = "must be positive (infinity = never fails)";
      }
  else if not (Float.is_finite burst_prob) || burst_prob < 0.0 || burst_prob >= 1.0
  then
    Error
      {
        field = "burst_prob";
        value = burst_prob;
        detail =
          "must lie in [0, 1): at 1 every gap takes the burst branch and the \
           mixture mean cannot be normalised to the MTBF";
      }
  else if not (Float.is_finite burst_factor) || burst_factor < 1.0 then
    Error { field = "burst_factor"; value = burst_factor; detail = "must be >= 1" }
  else Ok (Spot { mtbf; burst_prob; burst_factor })

let spot ?burst_prob ?burst_factor ~mtbf () =
  match spot_checked ?burst_prob ?burst_factor ~mtbf () with
  | Ok model -> model
  | Error e -> invalid_arg (param_error_to_string e)

let make ?(seed = 42) ?(mean_repair = 0.1) model =
  if not (Float.is_finite mean_repair) || mean_repair < 0.0 then
    invalid_arg "Faults.make: mean_repair must be nonnegative and finite";
  { model; mean_repair; seed }

let mtbf config =
  match config.model with
  | Exponential { mtbf } | Weibull { mtbf; _ } | Spot { mtbf; _ } -> mtbf

let model_name config =
  match config.model with
  | Exponential _ -> "exponential"
  | Weibull _ -> "weibull"
  | Spot _ -> "spot"

type t = { config : config; streams : Randomness.Rng.t array }

let create config ~nodes =
  if nodes <= 0 then invalid_arg "Faults.create: nodes must be positive";
  let root = Randomness.Rng.create ~seed:config.seed () in
  { config; streams = Array.init nodes (fun _ -> Randomness.Rng.split root) }

let stream t node =
  if node < 0 || node >= Array.length t.streams then
    invalid_arg "Faults: node index out of range";
  t.streams.(node)

(* Every model is normalised so the mean uptime equals the configured
   MTBF; the models differ only in the shape of the interarrival law
   (memoryless, ageing, or bursty-clustered). *)
let uptime t ~node =
  let rng = stream t node in
  match t.config.model with
  | Exponential { mtbf } ->
      if Float.is_finite mtbf then
        Randomness.Sampler.exponential rng ~rate:(1.0 /. mtbf)
      else infinity
  | Weibull { mtbf; shape } ->
      if Float.is_finite mtbf then
        (* E[Weibull(lambda, k)] = lambda Gamma(1 + 1/k). *)
        let lambda =
          mtbf /. exp (Numerics.Specfun.log_gamma (1.0 +. (1.0 /. shape)))
        in
        Randomness.Sampler.weibull rng ~lambda ~k:shape
      else infinity
  | Spot { mtbf; burst_prob; burst_factor } ->
      if Float.is_finite mtbf then begin
        (* Hyperexponential mixture: with probability [burst_prob] the
           next revocation follows quickly (mean mtbf/burst_factor),
           modelling clustered spot reclaims; the long branch's mean is
           chosen so the mixture mean stays exactly [mtbf]. *)
        let short_mean = mtbf /. burst_factor in
        let long_mean =
          mtbf *. (1.0 -. (burst_prob /. burst_factor)) /. (1.0 -. burst_prob)
        in
        let u = Randomness.Rng.float rng in
        let mean = if u < burst_prob then short_mean else long_mean in
        Randomness.Sampler.exponential rng ~rate:(1.0 /. mean)
      end
      else infinity

let downtime t ~node =
  (* Guard, not equality: a zero-or-negative mean repair means
     instantaneous recovery, and an exact [= 0.0] would let a tiny
     negative value through to a negative exponential rate. *)
  if t.config.mean_repair <= 0.0 then 0.0
  else
    Randomness.Sampler.exponential (stream t node)
      ~rate:(1.0 /. t.config.mean_repair)

let trace t ~node ~horizon =
  if not (Float.is_finite horizon) || horizon <= 0.0 then
    invalid_arg "Faults.trace: horizon must be positive and finite";
  let rec go acc now =
    let up = uptime t ~node in
    if not (Float.is_finite up) then List.rev acc
    else
      let down_at = now +. up in
      if down_at > horizon then List.rev acc
      else
        let back_at = down_at +. downtime t ~node in
        go ((down_at, back_at) :: acc) back_at
  in
  go [] 0.0
