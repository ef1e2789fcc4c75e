(* Quickstart: a complete tour of the public API in ~40 lines.

   Run with: dune exec examples/quickstart.exe *)

module Dist = Distributions.Dist
module Cost_model = Stochastic_core.Cost_model
module Strategy = Stochastic_core.Strategy
module Sequence = Stochastic_core.Sequence
module Expected_cost = Stochastic_core.Expected_cost

let () =
  (* 1. Pick a job distribution: jobs whose runtimes are LogNormal
     with log-mean 3 and log-std 0.5 (mean ~ 22.8 time units). *)
  let jobs = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  Format.printf "Jobs: %a@." Dist.pp jobs;

  (* 2. Pick a cost model. ReservationOnly = pay exactly what you
     reserve (AWS Reserved Instances). *)
  let model = Cost_model.reservation_only in

  (* 3. Ask for a reservation strategy. BRUTE-FORCE scans candidate
     first reservations and applies the paper's optimal recurrence. *)
  let strategy = Strategy.brute_force ~m:2000 ~n:1000 ~seed:1 () in
  let sequence = strategy.Strategy.build model jobs in
  Format.printf "Reservation sequence: %a@." (Sequence.pp_prefix 6) sequence;

  (* 4. What will it cost in expectation? Normalized cost 1.0 would be
     a clairvoyant scheduler; the paper's Table 2 reports ~1.85 for
     this distribution. *)
  let cost = Expected_cost.exact model jobs sequence in
  Format.printf "Expected cost: %.3f (normalized %.3f)@." cost
    (Expected_cost.normalized model jobs ~cost);

  (* 5. Run one concrete job through the sequence. *)
  let rng = Randomness.Rng.create ~seed:7 () in
  let duration = jobs.Dist.sample rng in
  let k, paid = Sequence.cost_of_run model sequence duration in
  Format.printf "A job of length %.2f needed %d reservation(s), paying %.2f@."
    duration k paid;

  (* 6. Compare against a simple heuristic on the same sample set. *)
  let samples = Dist.samples jobs rng 1000 in
  Numerics.Stats.sort samples;
  let eval s = Strategy.evaluate_on model jobs ~sorted_samples:samples s in
  Format.printf "Brute-Force %.3f vs Mean-Doubling %.3f vs Median %.3f@."
    (eval strategy)
    (eval Strategy.mean_doubling)
    (eval Strategy.median_by_median)
