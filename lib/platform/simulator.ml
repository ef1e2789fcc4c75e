module Sequence = Stochastic_core.Sequence
module Expected_cost = Stochastic_core.Expected_cost
module Dist = Distributions.Dist

type job_outcome = {
  duration : float;
  reservations_used : int;
  total_reserved : float;
  total_cost : float;
  wasted : float;
}

type report = {
  jobs : int;
  mean_cost : float;
  normalized_cost : float;
  mean_reservations : float;
  max_reservations : int;
  p95_cost : float;
  cvar95_cost : float;
  utilization : float;
  outcomes : job_outcome array;
}

let run_job m s ~duration =
  let k, total_cost = Sequence.cost_of_run m s duration in
  let reserved = Numerics.Kahan.create () in
  Seq.iter (Numerics.Kahan.add reserved) (Seq.take k s);
  let total_reserved = Numerics.Kahan.sum reserved in
  {
    duration;
    reservations_used = k;
    total_reserved;
    total_cost;
    wasted = total_reserved -. duration;
  }

let run ?(jobs = 1000) m d s rng =
  if jobs <= 0 then invalid_arg "Simulator.run: jobs must be positive";
  let outcomes =
    Array.init jobs (fun _ -> run_job m s ~duration:(d.Dist.sample rng))
  in
  let costs = Array.map (fun o -> o.total_cost) outcomes in
  let mean_cost = Numerics.Stats.mean costs in
  let mean_reservations =
    Numerics.Stats.mean
      (Array.map (fun o -> float_of_int o.reservations_used) outcomes)
  in
  let max_reservations =
    Array.fold_left (fun acc o -> max acc o.reservations_used) 0 outcomes
  in
  let total_duration = Numerics.Kahan.create () in
  let total_reserved = Numerics.Kahan.create () in
  Array.iter
    (fun o ->
      Numerics.Kahan.add total_duration o.duration;
      Numerics.Kahan.add total_reserved o.total_reserved)
    outcomes;
  let sorted_costs = Array.copy costs in
  Numerics.Stats.sort sorted_costs;
  let cvar95_cost =
    (* Mean of the top 5% (at least one job). *)
    let n = Array.length sorted_costs in
    let k = max 1 (n / 20) in
    let acc = Numerics.Kahan.create () in
    for i = n - k to n - 1 do
      Numerics.Kahan.add acc sorted_costs.(i)
    done;
    Numerics.Kahan.sum acc /. float_of_int k
  in
  {
    jobs;
    mean_cost;
    normalized_cost = Expected_cost.normalized m d ~cost:mean_cost;
    mean_reservations;
    max_reservations;
    p95_cost = Numerics.Stats.quantiles_sorted sorted_costs 0.95;
    cvar95_cost;
    utilization =
      Numerics.Kahan.sum total_duration /. Numerics.Kahan.sum total_reserved;
    outcomes;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "%d jobs: mean cost %.4f (normalized %.3f), %.2f reservations/job (max \
     %d), p95 cost %.4f, CVaR95 %.4f, utilization %.1f%%"
    r.jobs r.mean_cost r.normalized_cost r.mean_reservations r.max_reservations
    r.p95_cost r.cvar95_cost (100.0 *. r.utilization)
