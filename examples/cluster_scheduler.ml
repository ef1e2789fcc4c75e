(* Cluster scheduler walkthrough: many stochastic jobs contending for
   nodes, FCFS vs EASY backfilling, and the wait-time loop closed.

   The NeuroHPC scenario of the paper *assumes* an affine wait-time
   model wait ~ alpha * requested + gamma fitted offline from scheduler
   logs. Here we *produce* those logs: jobs carrying the paper's
   reservation sequences contend for a 32-node cluster, every attempt
   records its (requested, wait) pair, and the Fig. 2 binning/OLS
   pipeline measures (alpha, gamma) from the simulated contention.

   Run with: dune exec examples/cluster_scheduler.exe *)

module Cost_model = Stochastic_core.Cost_model
module Strategy = Stochastic_core.Strategy
module Dist = Distributions.Dist

let () =
  let d = Distributions.Lognormal.default in
  let assumed = Cost_model.neuro_hpc in
  let strategy = Strategy.mean_by_mean in
  let sequence = strategy.Strategy.build assumed d in
  Format.printf "distribution: %a@." Dist.pp d;
  Format.printf "assumed cost model: %a@." Cost_model.pp assumed;

  (* A 32-node cluster at offered load 1.15: sustained contention. *)
  let nodes = 32 in
  let scale_min = 0.1 and scale_max = 10.0 in
  let arrival_rate =
    Scheduler.Workload.rate_for_load ~scale_min ~scale_max ~sequence
      ~load:1.15 ~cluster_nodes:nodes d
  in
  let spec =
    Scheduler.Workload.make_spec ~scale_min ~scale_max ~jobs:1000
      ~arrival_rate ()
  in
  let run policy =
    (* Same seed for both policies: identical arrivals, durations and
       node counts, so the comparison isolates the dispatch rule. *)
    let rng = Randomness.Rng.create ~seed:7 () in
    let workload = Scheduler.Workload.generate spec d ~sequence rng in
    Scheduler.Engine.run (Scheduler.Engine.make_config ~nodes ~policy ()) workload
  in
  let results = List.map run Scheduler.Policy.all in
  List.iter
    (fun r ->
      let s = Scheduler.Metrics.summarize ~model:assumed r in
      Format.printf "@.%a@." Scheduler.Metrics.pp_summary s)
    results;

  (* Close the loop on the EASY run. *)
  let easy =
    List.find
      (fun r -> r.Scheduler.Engine.policy = Scheduler.Policy.Easy_backfill)
      results
  in
  let fit, measured = Scheduler.Metrics.measured_cost_model easy in
  Format.printf
    "@.measured wait model: wait = %.3f * requested + %.3f h (R^2 %.2f)@."
    fit.Numerics.Regression.slope fit.Numerics.Regression.intercept
    fit.Numerics.Regression.r_squared;
  Format.printf "measured cost model: %a@." Cost_model.pp measured;

  (* Re-score the strategy under the model its own contention induced. *)
  let rng = Randomness.Rng.create ~seed:8 () in
  let samples = Dist.samples d rng 2000 in
  Numerics.Stats.sort samples;
  let score m = Strategy.evaluate_on m d ~sorted_samples:samples strategy in
  Format.printf
    "normalized E(cost) of %s: %.4f under the assumed model, %.4f under the \
     measured one@."
    strategy.Strategy.name (score assumed) (score measured)
