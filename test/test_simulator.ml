(* Tests for the job-flow simulator. *)

module Sim = Platform.Simulator
module C = Stochastic_core.Cost_model

let close ?(tol = 1e-9) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_run_job_hand_example () =
  (* Sequence (2, 5), job of 3: two reservations, reserved 7 in
     total, wasted 7 - 3 = 4. *)
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.1 () in
  let s = List.to_seq [ 2.0; 5.0 ] in
  let o = Sim.run_job m s ~duration:3.0 in
  Alcotest.(check int) "reservations" 2 o.Sim.reservations_used;
  close "total reserved" 7.0 o.Sim.total_reserved;
  close "wasted" 4.0 o.Sim.wasted;
  close "cost matches Eq. (2)"
    ((2.0 +. 1.0 +. 0.1) +. (5.0 +. 1.5 +. 0.1))
    o.Sim.total_cost

let test_run_job_first_shot () =
  let m = C.reservation_only in
  let s = List.to_seq [ 4.0 ] in
  let o = Sim.run_job m s ~duration:4.0 in
  Alcotest.(check int) "one reservation" 1 o.Sim.reservations_used;
  close "no wasted time" 0.0 o.Sim.wasted

let test_report_consistency () =
  let m = C.neuro_hpc in
  let d = Distributions.Lognormal.of_moments ~mean:0.348 ~std:0.072 in
  let seq = Stochastic_core.Heuristics.mean_stdev d in
  let rng = Randomness.Rng.create ~seed:10 () in
  let r = Sim.run ~jobs:500 m d seq rng in
  Alcotest.(check int) "job count" 500 r.Sim.jobs;
  Alcotest.(check int) "outcome count" 500 (Array.length r.Sim.outcomes);
  Alcotest.(check bool) "utilization in (0, 1]" true
    (r.Sim.utilization > 0.0 && r.Sim.utilization <= 1.0 +. 1e-9);
  Alcotest.(check bool) "p95 above mean floor" true
    (r.Sim.p95_cost >= r.Sim.mean_cost *. 0.5);
  Alcotest.(check bool) "max reservations sane" true
    (r.Sim.max_reservations >= 1 && r.Sim.max_reservations < 100);
  (* mean_cost equals the mean over outcomes. *)
  let manual =
    Array.fold_left (fun acc o -> acc +. o.Sim.total_cost) 0.0 r.Sim.outcomes
    /. 500.0
  in
  close "mean cost consistent" manual r.Sim.mean_cost ~tol:1e-9

let test_report_matches_expected_cost () =
  (* Large-sample simulated mean approaches the exact expectation. *)
  let m = C.reservation_only in
  let d = Distributions.Exponential.default in
  let seq () = Stochastic_core.Heuristics.mean_doubling d in
  let exact = Stochastic_core.Expected_cost.exact m d (seq ()) in
  let rng = Randomness.Rng.create ~seed:11 () in
  let r = Sim.run ~jobs:100_000 m d (seq ()) rng in
  Alcotest.(check bool) "simulated mean near exact" true
    (Float.abs (r.Sim.mean_cost -. exact) < 0.05 *. exact)

let test_wasted_nonnegative () =
  let m = C.reservation_only in
  let d = Distributions.Gamma_dist.default in
  let seq = Stochastic_core.Heuristics.mean_by_mean d in
  let rng = Randomness.Rng.create ~seed:12 () in
  let r = Sim.run ~jobs:1000 m d seq rng in
  Array.iter
    (fun o ->
      if o.Sim.wasted < -1e-9 then
        Alcotest.failf "negative waste %g" o.Sim.wasted)
    r.Sim.outcomes

let test_jobs_validation () =
  let m = C.reservation_only in
  let d = Distributions.Exponential.default in
  let seq = Stochastic_core.Heuristics.mean_doubling d in
  let rng = Randomness.Rng.create () in
  Alcotest.(check bool) "jobs = 0 rejected" true
    (try ignore (Sim.run ~jobs:0 m d seq rng); false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "simulator"
    [
      ( "unit",
        [
          Alcotest.test_case "hand example" `Quick test_run_job_hand_example;
          Alcotest.test_case "first shot" `Quick test_run_job_first_shot;
          Alcotest.test_case "report consistency" `Quick test_report_consistency;
          Alcotest.test_case "matches expectation" `Slow
            test_report_matches_expected_cost;
          Alcotest.test_case "waste nonnegative" `Quick test_wasted_nonnegative;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
        ] );
    ]
