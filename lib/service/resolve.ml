module Strategy = Stochastic_core.Strategy
module Cost_model = Stochastic_core.Cost_model

let dist ?(hpc = false) ?trace ?(fit = false) name =
  match trace with
  | Some path -> (
      match Platform.Traces.load_csv path with
      | data -> (
          if fit then
            match Distributions.Fitting.lognormal_mle data with
            | f -> Ok (Distributions.Fitting.to_dist f)
            | exception Invalid_argument msg ->
                Error
                  (Printf.sprintf "cannot fit a LogNormal to %s: %s" path msg)
          else
            match Distributions.Empirical.make ~name:("trace:" ^ path) data with
            | d -> Ok d
            | exception Invalid_argument msg ->
                Error
                  (Printf.sprintf "unusable trace %s: %s" path msg))
      | exception Sys_error msg -> Error ("cannot read trace: " ^ msg)
      | exception Failure msg ->
          Error (Printf.sprintf "malformed trace %s: %s" path msg))
  | None -> (
      match String.lowercase_ascii name with
      (* The neuroscience traces are in seconds; the NeuroHPC cost
         model is calibrated in hours, so convert when both are
         combined. *)
      | "vbmqa" ->
          Ok
            (if hpc then Platform.Traces.(distribution_hours vbmqa)
             else Platform.Traces.(distribution vbmqa))
      | "fmriqa" ->
          Ok
            (if hpc then Platform.Traces.(distribution_hours fmriqa)
             else Platform.Traces.(distribution fmriqa))
      (* Infinite variance: not in the registry (the raw solvers need
         the Theorem 2 bounds), but exposed to demonstrate the robust
         solver's fallback cascade. *)
      | "frechetheavy" -> Ok Distributions.Frechet.heavy_tail
      | n -> (
          match Distributions.Registry.find n with
          | Some d -> Ok d
          | None ->
              Error
                (Printf.sprintf "unknown distribution %S; available: %s" name
                   (String.concat ", " (Distributions.Registry.names ())))))

let model ~hpc ~alpha ~beta ~gamma =
  if hpc then Ok Cost_model.neuro_hpc
  else
    match Cost_model.make ~alpha ~beta ~gamma () with
    | m -> Ok m
    | exception Invalid_argument msg -> Error ("unusable cost model: " ^ msg)

let known_strategies =
  [
    "brute-force";
    "mean-by-mean";
    "mean-stdev";
    "mean-doubling";
    "median-by-median";
    "equal-time";
    "equal-probability";
  ]

let strategy ~(budget : Robust.Solver.budget) ~seed name =
  let disc_n = budget.dp_points in
  match String.lowercase_ascii name with
  | "brute-force" | "bruteforce" | "bf" ->
      Ok
        (Strategy.brute_force ~m:budget.bf_candidates ~n:budget.mc_samples
           ~seed ())
  | "mean-by-mean" -> Ok Strategy.mean_by_mean
  | "mean-stdev" -> Ok Strategy.mean_stdev
  | "mean-doubling" -> Ok Strategy.mean_doubling
  | "median-by-median" -> Ok Strategy.median_by_median
  | "equal-time" ->
      Ok
        (Strategy.dp_discretized ~scheme:Stochastic_core.Discretize.Equal_time
           ~n:disc_n ())
  | "equal-probability" | "equal-prob" ->
      Ok
        (Strategy.dp_discretized
           ~scheme:Stochastic_core.Discretize.Equal_probability ~n:disc_n ())
  | _ ->
      Error
        (Printf.sprintf "unknown strategy %S; available: %s" name
           (String.concat ", " known_strategies))

let tier_of_name name =
  match String.lowercase_ascii (String.trim name) with
  | "brute-force" | "bruteforce" | "bf" -> Some Robust.Solver.Brute_force
  | "dp" | "equal-probability" | "equal-prob" ->
      Some Robust.Solver.Dp_equal_probability
  | "mean-doubling" | "doubling" -> Some Robust.Solver.Mean_doubling
  | _ -> None

let tiers_of_string names =
  let parts = String.split_on_char ',' names in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match tier_of_name p with
        | Some t -> go (t :: acc) rest
        | None ->
            Error
              (Printf.sprintf
                 "unknown tier %S (use brute-force, dp, mean-doubling)" p))
  in
  go [] parts

let tiers_of_strategy name =
  match String.lowercase_ascii (String.trim name) with
  | "cascade" -> Some Robust.Solver.all_tiers
  | n -> ( match tier_of_name n with Some t -> Some [ t ] | None -> None)
