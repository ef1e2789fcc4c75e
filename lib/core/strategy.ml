type t = {
  name : string;
  build : Cost_model.t -> Distributions.Dist.t -> Sequence.t;
}

let mean_by_mean =
  { name = "Mean-by-Mean"; build = (fun _ d -> Heuristics.mean_by_mean d) }

let mean_stdev =
  { name = "Mean-Stdev"; build = (fun _ d -> Heuristics.mean_stdev d) }

let mean_doubling =
  { name = "Mean-Doubling"; build = (fun _ d -> Heuristics.mean_doubling d) }

let median_by_median =
  { name = "Med-by-Med"; build = (fun _ d -> Heuristics.median_by_median d) }

let quantile_ladder ~q =
  {
    name = Printf.sprintf "Ladder(q=%g)" q;
    build = (fun _ d -> Heuristics.quantile_ladder ~q d);
  }

let brute_force ?(m = 5000) ?(n = 1000) ?(seed = 42) () =
  {
    name = "Brute-Force";
    build =
      (fun cost d ->
        let rng = Randomness.Rng.create ~seed () in
        let r =
          Brute_force.search ~m ~evaluator:(Brute_force.Monte_carlo { rng; n })
            cost d
        in
        r.Brute_force.sequence);
  }

let dp_discretized ?(eps = 1e-7) ~scheme ~n () =
  {
    name = Discretize.scheme_name scheme;
    build =
      (fun cost d ->
        let discrete = Discretize.run ~eps scheme ~n d in
        Dp.sequence_for cost d discrete);
  }

let equal_time = dp_discretized ~scheme:Discretize.Equal_time ~n:1000 ()

let equal_probability =
  dp_discretized ~scheme:Discretize.Equal_probability ~n:1000 ()

let table2 ?(seed = 42) () =
  [
    brute_force ~seed ();
    mean_by_mean;
    mean_stdev;
    mean_doubling;
    median_by_median;
    equal_time;
    equal_probability;
  ]

let evaluate ?(n = 1000) ~rng cost d s =
  let seq = s.build cost d in
  let c = Expected_cost.monte_carlo cost d rng ~n seq in
  Expected_cost.normalized cost d ~cost:c

let evaluate_on cost d ~sorted_samples s =
  let seq = s.build cost d in
  let c = Expected_cost.mean_cost_presampled cost ~sorted_samples seq in
  Expected_cost.normalized cost d ~cost:c
