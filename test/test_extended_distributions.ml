(* The generic distribution battery applied to the extended
   (beyond-Table-1) distributions, plus per-law oracle checks. *)

module Dist = Distributions.Dist

let extras = Distributions.Registry.extras

let rel_close ?(tol = 1e-6) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ------------------------ generic battery ------------------------- *)

let test_pdf_integrates_to_one () =
  List.iter
    (fun (name, d) ->
      let total =
        match d.Dist.support with
        | Dist.Bounded (a, b) ->
            Numerics.Integrate.gauss_kronrod ~initial:16 d.Dist.pdf a b
        | Dist.Unbounded a -> Numerics.Integrate.to_infinity d.Dist.pdf a
      in
      rel_close (name ^ ": pdf integrates to 1") 1.0 total ~tol:1e-6)
    extras

let test_quantile_cdf_roundtrip () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun p ->
          rel_close
            (Printf.sprintf "%s: F(Q(%g))" name p)
            p
            (d.Dist.cdf (d.Dist.quantile p))
            ~tol:1e-8)
        [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99 ])
    extras

let test_mean_variance_match_quadrature () =
  List.iter
    (fun (name, d) ->
      rel_close (name ^ ": mean") (Dist.numeric_mean d) d.Dist.mean ~tol:1e-5;
      let integrand t = t *. t *. d.Dist.pdf t in
      let ex2 =
        match d.Dist.support with
        | Dist.Bounded (a, b) ->
            Numerics.Integrate.gauss_kronrod ~initial:16 integrand a b
        | Dist.Unbounded a -> Numerics.Integrate.to_infinity integrand a
      in
      rel_close (name ^ ": variance")
        (ex2 -. (d.Dist.mean *. d.Dist.mean))
        d.Dist.variance ~tol:1e-4)
    extras

let test_conditional_mean_matches_quadrature () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun p ->
          let tau = d.Dist.quantile p in
          rel_close
            (Printf.sprintf "%s: E[X | X > Q(%g)]" name p)
            (Dist.numeric_conditional_mean d tau)
            (d.Dist.conditional_mean tau)
            ~tol:1e-4)
        [ 0.1; 0.5; 0.9 ])
    extras

let test_sampling_moments () =
  let n = 100_000 in
  List.iter
    (fun (name, d) ->
      let rng = Randomness.Rng.create ~seed:909 () in
      let samples = Dist.samples d rng n in
      let m = Numerics.Stats.mean samples in
      let se = Dist.std d /. sqrt (float_of_int n) in
      if
        Float.abs (m -. d.Dist.mean)
        > Float.max (6.0 *. se) (0.01 *. Float.max 1.0 d.Dist.mean)
      then Alcotest.failf "%s: sample mean %.6g vs %.6g" name m d.Dist.mean)
    extras

let test_solvers_run_on_extras () =
  (* The full solver stack must work unchanged on every new law. *)
  let cost = Stochastic_core.Cost_model.reservation_only in
  List.iter
    (fun (name, d) ->
      let bf =
        Stochastic_core.Brute_force.search ~m:300
          ~evaluator:Stochastic_core.Brute_force.Exact cost d
      in
      if not (bf.Stochastic_core.Brute_force.normalized >= 1.0
              && bf.Stochastic_core.Brute_force.normalized < 10.0) then
        Alcotest.failf "%s: brute force normalized %.3f out of range" name
          bf.Stochastic_core.Brute_force.normalized;
      let disc =
        Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_time
          ~n:300 d
      in
      let dp = Stochastic_core.Dp.solve cost disc in
      if not (Float.is_finite dp.Stochastic_core.Dp.expected_cost) then
        Alcotest.failf "%s: DP cost not finite" name)
    extras

(* ------------------------ per-law oracles ------------------------- *)

let test_log_logistic_oracle () =
  let d = Distributions.Log_logistic.make ~scale:2.0 ~shape:3.0 in
  let pi = 4.0 *. atan 1.0 in
  let b = pi /. 3.0 in
  rel_close "LL mean" (2.0 *. b /. sin b) d.Dist.mean ~tol:1e-12;
  rel_close "LL median = scale" 2.0 (d.Dist.quantile 0.5) ~tol:1e-9;
  rel_close "LL quantile closed form"
    (2.0 *. ((0.25 /. 0.75) ** (1.0 /. 3.0)))
    (d.Dist.quantile 0.25) ~tol:1e-12;
  Alcotest.(check bool) "shape <= 2 rejected" true
    (try ignore (Distributions.Log_logistic.make ~scale:1.0 ~shape:2.0); false
     with Invalid_argument _ -> true)

let test_frechet_oracle () =
  let d = Distributions.Frechet.make ~shape:3.0 ~scale:1.5 in
  rel_close "Frechet mean" (1.5 *. Numerics.Specfun.gamma (2.0 /. 3.0))
    d.Dist.mean ~tol:1e-12;
  rel_close "Frechet cdf(quantile)" 0.37 (d.Dist.cdf (d.Dist.quantile 0.37))
    ~tol:1e-10;
  (* 1 < shape <= 2: heavy tail with finite mean but divergent second
     moment — representable, flagged through an infinite variance. *)
  let heavy = Distributions.Frechet.make ~shape:1.5 ~scale:1.0 in
  rel_close "heavy-tail mean" (Numerics.Specfun.gamma (1.0 /. 3.0))
    heavy.Dist.mean ~tol:1e-12;
  Alcotest.(check bool) "heavy-tail variance is infinite" true
    (* stochlint: allow FLOAT_EQ — infinity is an exact sentinel, not a computed value *)
    (heavy.Dist.variance = infinity);
  Alcotest.(check bool) "shape <= 1 rejected" true
    (try ignore (Distributions.Frechet.make ~shape:1.0 ~scale:1.0); false
     with Invalid_argument _ -> true)

let test_triangular_oracle () =
  let d = Distributions.Triangular.make ~a:0.0 ~c:1.0 ~b:2.0 in
  rel_close "symmetric triangular mean" 1.0 d.Dist.mean ~tol:1e-12;
  rel_close "variance" (1.0 /. 6.0) d.Dist.variance ~tol:1e-12;
  rel_close "median = mode for symmetric" 1.0 (d.Dist.quantile 0.5) ~tol:1e-9;
  rel_close "pdf peak" 1.0 (d.Dist.pdf 1.0) ~tol:1e-12;
  (* Degenerate corners: mode at an endpoint still works. *)
  let r = Distributions.Triangular.make ~a:1.0 ~c:1.0 ~b:3.0 in
  rel_close "right triangle mean" (5.0 /. 3.0) r.Dist.mean ~tol:1e-12;
  rel_close "right triangle cdf" 0.75 (r.Dist.cdf 2.0) ~tol:1e-12

let test_shifted_exponential_oracle () =
  let d = Distributions.Shifted_exponential.make ~location:2.0 ~rate:0.5 in
  rel_close "mean" 4.0 d.Dist.mean ~tol:1e-12;
  rel_close "lower bound" 2.0 (Dist.lower d) ~tol:1e-12;
  rel_close "memorylessness" 7.0 (d.Dist.conditional_mean 5.0) ~tol:1e-12;
  rel_close "cond mean below support = mean" 4.0 (d.Dist.conditional_mean 0.0)
    ~tol:1e-12

let test_rayleigh_oracle () =
  let d = Distributions.Rayleigh.make ~sigma:2.0 in
  let pi = 4.0 *. atan 1.0 in
  rel_close "Rayleigh mean" (2.0 *. sqrt (pi /. 2.0)) d.Dist.mean ~tol:1e-10;
  rel_close "Rayleigh cdf" (1.0 -. exp (-0.5)) (d.Dist.cdf 2.0) ~tol:1e-12

let test_mixture_moments () =
  (* Two-point sanity: mixture of two exponentials. *)
  let e1 = Distributions.Exponential.make ~rate:1.0 in
  let e2 = Distributions.Exponential.make ~rate:0.2 in
  let m = Distributions.Mixture.make [ (0.25, e1); (0.75, e2) ] in
  rel_close "mixture mean" ((0.25 *. 1.0) +. (0.75 *. 5.0)) m.Dist.mean
    ~tol:1e-12;
  (* E[X^2] = 0.25 * 2 + 0.75 * 50 = 38; var = 38 - 16 = 22. *)
  rel_close "mixture variance" 22.0 m.Dist.variance ~tol:1e-12

let test_mixture_bimodal_shape () =
  let d = Distributions.Mixture.default in
  (* Bimodality: the density has a dip between the two modes. *)
  let p10 = d.Dist.pdf 10.0 and p30 = d.Dist.pdf 30.0 and p60 = d.Dist.pdf 60.0 in
  Alcotest.(check bool) "dip between modes" true (p30 < p10 && p30 < p60);
  (* Weights recovered by the CDF at the valley. *)
  Alcotest.(check bool) "fast mode carries ~0.7" true
    (Float.abs (d.Dist.cdf 30.0 -. 0.7) < 0.02)

let test_mixture_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Distributions.Mixture.make []); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nonpositive weight rejected" true
    (try
       ignore
         (Distributions.Mixture.make
            [ (0.0, Distributions.Exponential.default) ]);
       false
     with Invalid_argument _ -> true)

let test_mixture_bounded_support () =
  let u1 = Distributions.Uniform_dist.make ~a:1.0 ~b:2.0 in
  let u2 = Distributions.Uniform_dist.make ~a:5.0 ~b:8.0 in
  let m = Distributions.Mixture.make [ (0.5, u1); (0.5, u2) ] in
  Alcotest.(check bool) "bounded support" true (Dist.is_bounded m);
  rel_close "hull lower" 1.0 (Dist.lower m) ~tol:1e-12;
  rel_close "hull upper" 8.0 (Dist.upper m) ~tol:1e-12;
  (* Quantile across the support gap. *)
  rel_close "quantile in second component" 6.5 (m.Dist.quantile 0.75)
    ~tol:1e-6

let test_registry () =
  Alcotest.(check int) "15 distributions registered" 15
    (List.length (Distributions.Table1.all @ Distributions.Registry.extras));
  Alcotest.(check bool) "find extended law" true
    (Distributions.Registry.find "frechet" <> None);
  Alcotest.(check bool) "find table1 law" true
    (Distributions.Registry.find "LogNormal" <> None);
  Alcotest.(check bool) "unknown" true
    (Distributions.Registry.find "zipf" = None)

(* --------------------------- properties --------------------------- *)

let arbitrary_extra =
  QCheck.make
    ~print:(fun d -> d.Dist.name)
    (QCheck.Gen.oneofl (List.map snd extras))

let prop_conditional_mean_above_tau =
  QCheck.Test.make ~count:300 ~name:"extras: E[X | X > tau] > tau"
    QCheck.(pair arbitrary_extra (float_range 0.01 0.99))
    (fun (d, p) ->
      let tau = d.Dist.quantile p in
      d.Dist.conditional_mean tau > tau)

let prop_cdf_bounds =
  QCheck.Test.make ~count:300 ~name:"extras: cdf in [0, 1]"
    QCheck.(pair arbitrary_extra (float_range 0.0 200.0))
    (fun (d, t) ->
      let f = d.Dist.cdf t in
      f >= 0.0 && f <= 1.0)

let () =
  Alcotest.run "extended_distributions"
    [
      ( "battery",
        [
          Alcotest.test_case "pdf integrates to 1" `Quick
            test_pdf_integrates_to_one;
          Alcotest.test_case "quantile/cdf roundtrip" `Quick
            test_quantile_cdf_roundtrip;
          Alcotest.test_case "moments vs quadrature" `Quick
            test_mean_variance_match_quadrature;
          Alcotest.test_case "conditional mean vs quadrature" `Quick
            test_conditional_mean_matches_quadrature;
          Alcotest.test_case "sampling moments" `Slow test_sampling_moments;
          Alcotest.test_case "solvers run" `Quick test_solvers_run_on_extras;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "log-logistic" `Quick test_log_logistic_oracle;
          Alcotest.test_case "frechet" `Quick test_frechet_oracle;
          Alcotest.test_case "triangular" `Quick test_triangular_oracle;
          Alcotest.test_case "shifted exponential" `Quick
            test_shifted_exponential_oracle;
          Alcotest.test_case "rayleigh" `Quick test_rayleigh_oracle;
          Alcotest.test_case "mixture moments" `Quick test_mixture_moments;
          Alcotest.test_case "mixture bimodality" `Quick
            test_mixture_bimodal_shape;
          Alcotest.test_case "mixture validation" `Quick test_mixture_validation;
          Alcotest.test_case "mixture bounded support" `Quick
            test_mixture_bounded_support;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_conditional_mean_above_tau;
          QCheck_alcotest.to_alcotest prop_cdf_bounds;
        ] );
    ]
