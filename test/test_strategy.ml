(* Tests for the uniform strategy interface. *)

module St = Stochastic_core.Strategy
module C = Stochastic_core.Cost_model
module Dist = Distributions.Dist

let test_table2_roster () =
  let roster = Experiments.Table2.strategies Experiments.Config.quick in
  Alcotest.(check int) "seven strategies" 7 (List.length roster);
  Alcotest.(check string) "brute force first" "Brute-Force"
    (List.hd roster).St.name;
  let names = List.map (fun s -> s.St.name) roster in
  Alcotest.(check bool) "contains equal-time" true
    (List.mem "Equal-time" names);
  Alcotest.(check bool) "contains equal-probability" true
    (List.mem "Equal-probability" names)

let test_evaluate_on_deterministic () =
  let d = Distributions.Gamma_dist.default in
  let rng = Randomness.Rng.create ~seed:8 () in
  let samples = Dist.samples d rng 500 in
  Array.sort compare samples;
  let v1 = St.evaluate_on C.reservation_only d ~sorted_samples:samples St.mean_stdev in
  let v2 = St.evaluate_on C.reservation_only d ~sorted_samples:samples St.mean_stdev in
  Alcotest.(check (float 0.0)) "same samples, same value" v1 v2;
  Alcotest.(check bool) "normalized >= 1 - noise" true (v1 > 0.9)

let test_evaluate_uses_fresh_samples () =
  let d = Distributions.Gamma_dist.default in
  let rng = Randomness.Rng.create ~seed:8 () in
  let a = St.evaluate ~n:300 ~rng C.reservation_only d St.mean_stdev in
  let b = St.evaluate ~n:300 ~rng C.reservation_only d St.mean_stdev in
  (* The stream advances, so two calls use different draws. *)
  Alcotest.(check bool) "different draws differ" true (a <> b)

let test_all_strategies_run_on_all_distributions () =
  let roster =
    (* Cheap brute force + small discretizations keep this fast. *)
    [
      St.brute_force ~m:150 ~n:200 ();
      St.mean_by_mean;
      St.mean_stdev;
      St.mean_doubling;
      St.median_by_median;
      St.dp_discretized ~scheme:Stochastic_core.Discretize.Equal_time ~n:100 ();
      St.dp_discretized ~scheme:Stochastic_core.Discretize.Equal_probability
        ~n:100 ();
    ]
  in
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun s ->
          let rng = Randomness.Rng.create ~seed:4 () in
          let v = St.evaluate ~n:400 ~rng C.reservation_only d s in
          if not (Float.is_finite v) || v <= 0.0 then
            Alcotest.failf "%s on %s: bad value %g" s.St.name dname v;
          if v > 25.0 then
            Alcotest.failf "%s on %s: absurd normalized cost %g" s.St.name
              dname v)
        roster)
    Distributions.Table1.all

let test_neuro_model_runs () =
  (* The strategies must also work under the NeuroHPC cost model. *)
  let d = Distributions.Lognormal.of_moments ~mean:0.348 ~std:0.072 in
  let rng = Randomness.Rng.create ~seed:14 () in
  let v = St.evaluate ~n:500 ~rng C.neuro_hpc d St.mean_by_mean in
  Alcotest.(check bool) "finite and >= 1 - noise" true
    (Float.is_finite v && v > 0.9 && v < 10.0)

let () =
  Alcotest.run "strategy"
    [
      ( "unit",
        [
          Alcotest.test_case "table2 roster" `Quick test_table2_roster;
          Alcotest.test_case "evaluate_on deterministic" `Quick
            test_evaluate_on_deterministic;
          Alcotest.test_case "evaluate fresh samples" `Quick
            test_evaluate_uses_fresh_samples;
          Alcotest.test_case "all strategies x all distributions" `Slow
            test_all_strategies_run_on_all_distributions;
          Alcotest.test_case "neuro model" `Quick test_neuro_model_runs;
        ] );
    ]
