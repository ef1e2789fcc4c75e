(* Tests for trace-interpolated empirical distributions. *)

module E = Distributions.Empirical
module Dist = Distributions.Dist

let close ?(tol = 1e-9) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_make_validation () =
  Alcotest.(check bool) "negative sample rejected" true
    (try ignore (E.make [| 1.0; -2.0 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "constant sample rejected" true
    (try ignore (E.make [| 2.0; 2.0 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan rejected" true
    (try ignore (E.make [| 1.0; nan |]); false
     with Invalid_argument _ -> true)

let test_interpolated_cdf_quantile () =
  let d = E.make [| 0.0; 1.0; 2.0; 3.0 |] in
  close "cdf midpoint of first segment" (1.0 /. 6.0) (d.Dist.cdf 0.5);
  close "quantile 0.5" 1.5 (d.Dist.quantile 0.5);
  close "cdf(quantile 0.3)" 0.3 (d.Dist.cdf (d.Dist.quantile 0.3));
  close "cdf at min" 0.0 (d.Dist.cdf 0.0);
  close "cdf at max" 1.0 (d.Dist.cdf 3.0)

(* Type 7: the i-th of n order statistics sits at CDF level
   i / (n - 1), whatever the input order. *)
let test_cdf_at_order_statistics () =
  let d = E.make [| 4.0; 1.0; 9.0; 2.0 |] in
  close "below all" 0.0 (d.Dist.cdf 0.5);
  close "at first" 0.0 (d.Dist.cdf 1.0);
  close "at second" (1.0 /. 3.0) (d.Dist.cdf 2.0);
  close "at third" (2.0 /. 3.0) (d.Dist.cdf 4.0);
  close "at last" 1.0 (d.Dist.cdf 9.0);
  close "above all" 1.0 (d.Dist.cdf 20.0);
  close "quantile reads the order statistic" 4.0 (d.Dist.quantile (2.0 /. 3.0))

let test_moments_piecewise () =
  (* Equally spaced points: the interpolated law is Uniform(0, 3). *)
  let d = E.make [| 0.0; 1.0; 2.0; 3.0 |] in
  close "mean of uniformized trace" 1.5 d.Dist.mean;
  close "variance of uniformized trace" 0.75 d.Dist.variance;
  close "conditional mean matches uniform" 2.25 (d.Dist.conditional_mean 1.5)

let test_pdf_density () =
  let d = E.make [| 0.0; 1.0; 3.0 |] in
  (* Segment [0,1] has mass 1/2 over width 1; segment [1,3] mass 1/2
     over width 2. *)
  close "pdf on narrow segment" 0.5 (d.Dist.pdf 0.5);
  close "pdf on wide segment" 0.25 (d.Dist.pdf 2.0);
  close "pdf outside" 0.0 (d.Dist.pdf 5.0)

let test_sampling () =
  let d = E.make [| 0.0; 1.0; 2.0; 3.0 |] in
  let rng = Randomness.Rng.create ~seed:5 () in
  let samples = Dist.samples d rng 50_000 in
  Alcotest.(check (float 0.02)) "bootstrap mean" 1.5
    (Numerics.Stats.mean samples)

let test_ks_statistic () =
  (* KS of a sample against its own generating distribution is small;
     against a shifted distribution it is large. *)
  let rng = Randomness.Rng.create ~seed:21 () in
  let ln = Distributions.Lognormal.default in
  let samples = Dist.samples ln rng 5000 in
  let ks_good = E.ks_statistic ln samples in
  Alcotest.(check bool) "ks small for true law" true (ks_good < 0.03);
  let shifted = Distributions.Lognormal.make ~mu:3.5 ~sigma:0.5 in
  let ks_bad = E.ks_statistic shifted samples in
  Alcotest.(check bool) "ks large for wrong law" true (ks_bad > 0.2)

let test_recurrence_compatible () =
  (* The interpolated distribution exposes a usable pdf, so the
     optimal recurrence runs directly on trace data. *)
  let rng = Randomness.Rng.create ~seed:33 () in
  let trace =
    Dist.samples Distributions.Lognormal.default rng 2000
  in
  let d = E.make trace in
  let cost = Stochastic_core.Cost_model.reservation_only in
  let r =
    Stochastic_core.Brute_force.search ~m:200
      ~evaluator:Stochastic_core.Brute_force.Exact cost d
  in
  Alcotest.(check bool) "brute force on empirical distribution" true
    (r.Stochastic_core.Brute_force.normalized > 1.0
    && r.Stochastic_core.Brute_force.normalized < 4.0)

let prop_quantile_cdf_roundtrip =
  QCheck.Test.make ~count:200 ~name:"empirical cdf/quantile roundtrip"
    QCheck.(pair
              (list_of_size Gen.(int_range 5 100) (float_range 0.0 100.0))
              (float_range 0.01 0.99))
    (fun (xs, p) ->
      let xs = List.sort_uniq compare xs in
      if List.length xs < 2 then true
      else begin
        let d = E.make (Array.of_list xs) in
        let t = d.Dist.quantile p in
        Float.abs (d.Dist.cdf t -. p) <= 1e-9
      end)

let prop_cdf_monotone =
  QCheck.Test.make ~count:200 ~name:"empirical cdf is nondecreasing in [0, 1]"
    QCheck.(pair
              (list_of_size Gen.(int_range 2 50) (float_range 0.0 100.0))
              (pair (float_range (-10.0) 110.0) (float_range (-10.0) 110.0)))
    (fun (xs, (t1, t2)) ->
      let xs = List.sort_uniq compare xs in
      if List.length xs < 2 then true
      else begin
        let d = E.make (Array.of_list xs) in
        let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
        let f_lo = d.Dist.cdf lo and f_hi = d.Dist.cdf hi in
        f_lo >= 0.0 && f_hi <= 1.0 && f_lo <= f_hi
      end)

let prop_mean_between_extremes =
  QCheck.Test.make ~count:200 ~name:"empirical mean within data range"
    QCheck.(list_of_size Gen.(int_range 2 100) (float_range 0.0 1000.0))
    (fun xs ->
      let xs = List.sort_uniq compare xs in
      if List.length xs < 2 then true
      else begin
        let a = Array.of_list xs in
        let d = E.make a in
        let mn = Array.fold_left Float.min infinity a
        and mx = Array.fold_left Float.max neg_infinity a in
        d.Dist.mean >= mn -. 1e-9 && d.Dist.mean <= mx +. 1e-9
      end)

let () =
  Alcotest.run "empirical"
    [
      ( "unit",
        [
          Alcotest.test_case "cdf at order statistics" `Quick
            test_cdf_at_order_statistics;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "cdf/quantile" `Quick test_interpolated_cdf_quantile;
          Alcotest.test_case "moments" `Quick test_moments_piecewise;
          Alcotest.test_case "pdf" `Quick test_pdf_density;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "ks statistic" `Quick test_ks_statistic;
          Alcotest.test_case "recurrence compatible" `Quick
            test_recurrence_compatible;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_quantile_cdf_roundtrip;
          QCheck_alcotest.to_alcotest prop_cdf_monotone;
          QCheck_alcotest.to_alcotest prop_mean_between_extremes;
        ] );
    ]
