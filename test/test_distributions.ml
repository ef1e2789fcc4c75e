(* A uniform test battery applied to all nine Table 1 distributions:
   every closed-form field (cdf, quantile, mean, variance,
   conditional_mean) is validated against an independent computation
   (quadrature over the pdf), plus per-distribution oracle checks of
   the Table 5 formulas. *)

module Dist = Distributions.Dist

let all = Distributions.Table1.all

let rel_close ?(tol = 1e-6) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* ------------------- generic battery (unit style) ------------------ *)

let probe_points d =
  (* Representative quantiles within the support. *)
  List.map d.Dist.quantile [ 0.05; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let test_pdf_integrates_to_one () =
  List.iter
    (fun (name, d) ->
      let total =
        match d.Dist.support with
        | Dist.Bounded (a, b) -> Numerics.Integrate.gauss_kronrod ~initial:16 d.Dist.pdf a b
        | Dist.Unbounded a -> Numerics.Integrate.to_infinity d.Dist.pdf a
      in
      rel_close (name ^ ": pdf integrates to 1") 1.0 total ~tol:1e-6)
    all

let test_cdf_matches_pdf_integral () =
  List.iter
    (fun (name, d) ->
      let a = Dist.lower d in
      List.iter
        (fun t ->
          let integral = Numerics.Integrate.gauss_kronrod ~initial:8 d.Dist.pdf a t in
          rel_close
            (Printf.sprintf "%s: F(%g) = int pdf" name t)
            integral (d.Dist.cdf t) ~tol:1e-6)
        (probe_points d))
    all

let test_quantile_cdf_roundtrip () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun p ->
          let t = d.Dist.quantile p in
          rel_close (Printf.sprintf "%s: F(Q(%g)) = %g" name p p) p
            (d.Dist.cdf t) ~tol:1e-8)
        [ 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99; 0.999 ])
    all

let test_mean_matches_quadrature () =
  List.iter
    (fun (name, d) ->
      rel_close (name ^ ": closed-form mean") (Dist.numeric_mean d) d.Dist.mean
        ~tol:1e-6)
    all

let test_variance_matches_quadrature () =
  List.iter
    (fun (name, d) ->
      let integrand t = t *. t *. d.Dist.pdf t in
      let ex2 =
        match d.Dist.support with
        | Dist.Bounded (a, b) ->
            Numerics.Integrate.gauss_kronrod ~initial:16 integrand a b
        | Dist.Unbounded a -> Numerics.Integrate.to_infinity integrand a
      in
      rel_close (name ^ ": closed-form variance")
        (ex2 -. (d.Dist.mean *. d.Dist.mean))
        d.Dist.variance ~tol:1e-5)
    all

let test_conditional_mean_matches_quadrature () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun tau ->
          rel_close
            (Printf.sprintf "%s: E[X | X > %g]" name tau)
            (Dist.numeric_conditional_mean d tau)
            (d.Dist.conditional_mean tau)
            ~tol:1e-5)
        (List.map d.Dist.quantile [ 0.1; 0.5; 0.9 ]))
    all

let test_conditional_mean_at_lower_is_mean () =
  List.iter
    (fun (name, d) ->
      rel_close (name ^ ": E[X | X > lower] = mean") d.Dist.mean
        (d.Dist.conditional_mean (Dist.lower d))
        ~tol:1e-9)
    all

let test_sampling_moments () =
  let n = 100_000 in
  List.iter
    (fun (name, d) ->
      let rng = Randomness.Rng.create ~seed:77 () in
      let samples = Dist.samples d rng n in
      let m = Numerics.Stats.mean samples in
      let sd = Dist.std d in
      let se = sd /. sqrt (float_of_int n) in
      if Float.abs (m -. d.Dist.mean) > Float.max (6.0 *. se) (0.01 *. d.Dist.mean)
      then
        Alcotest.failf "%s: sample mean %.6g too far from %.6g" name m
          d.Dist.mean)
    all

let test_samples_in_support () =
  List.iter
    (fun (name, d) ->
      let rng = Randomness.Rng.create ~seed:31 () in
      for _ = 1 to 10_000 do
        let x = d.Dist.sample rng in
        if not (Dist.in_support d x) then
          Alcotest.failf "%s: sample %g outside support" name x
      done)
    all

let test_helpers () =
  let u = Distributions.Uniform_dist.default in
  Alcotest.(check bool) "uniform is bounded" true (Dist.is_bounded u);
  rel_close "uniform lower" 10.0 (Dist.lower u);
  rel_close "uniform upper" 20.0 (Dist.upper u);
  rel_close "uniform sf(15)" 0.5 (Dist.sf u 15.0);
  rel_close "uniform median" 15.0 (Dist.median u);
  let e = Distributions.Exponential.default in
  Alcotest.(check bool) "exponential unbounded" false (Dist.is_bounded e);
  (* stochlint: allow FLOAT_EQ — infinity is an exact sentinel, not a computed value *)
  Alcotest.(check bool) "exponential upper = inf" true (Dist.upper e = infinity)

(* -------------------- per-distribution oracles -------------------- *)

let test_exponential_formulas () =
  let d = Distributions.Exponential.make ~rate:2.0 in
  rel_close "exp mean" 0.5 d.Dist.mean;
  rel_close "exp variance" 0.25 d.Dist.variance;
  rel_close "exp cdf(1)" (1.0 -. exp (-2.0)) (d.Dist.cdf 1.0);
  rel_close "exp quantile" (-.log 0.5 /. 2.0) (d.Dist.quantile 0.5);
  (* Memorylessness. *)
  rel_close "exp cond mean" (3.0 +. 0.5) (d.Dist.conditional_mean 3.0)

let test_weibull_formulas () =
  let d = Distributions.Weibull.default in
  (* lambda = 1, kappa = 0.5: mean = Gamma(3) = 2, E[X^2] = Gamma(5) = 24. *)
  rel_close "weibull mean" 2.0 d.Dist.mean;
  rel_close "weibull variance" 20.0 d.Dist.variance;
  rel_close "weibull cdf" (1.0 -. exp (-.sqrt 2.0)) (d.Dist.cdf 2.0);
  (* Deep-tail conditional mean must stay finite and above tau
     (asymptotic branch). *)
  let tau = 1e7 in
  let cm = d.Dist.conditional_mean tau in
  Alcotest.(check bool) "weibull deep-tail cond mean finite" true
    (Float.is_finite cm && cm > tau)

let test_gamma_formulas () =
  let d = Distributions.Gamma_dist.default in
  rel_close "gamma mean" 1.0 d.Dist.mean;
  rel_close "gamma variance" 0.5 d.Dist.variance;
  (* Gamma(2, 2): F(t) = 1 - e^-2t (1 + 2t). *)
  rel_close "gamma cdf(1)" (1.0 -. (exp (-2.0) *. 3.0)) (d.Dist.cdf 1.0);
  let tau = 1e4 in
  let cm = d.Dist.conditional_mean tau in
  Alcotest.(check bool) "gamma deep-tail cond mean sane" true
    (Float.is_finite cm && cm > tau && cm < tau *. 1.1)

let test_lognormal_formulas () =
  let d = Distributions.Lognormal.make ~mu:1.0 ~sigma:0.5 in
  rel_close "lognormal mean" (exp 1.125) d.Dist.mean;
  rel_close "lognormal median" (exp 1.0) (Dist.median d) ~tol:1e-9;
  rel_close "lognormal variance"
    ((exp 0.25 -. 1.0) *. exp 2.25)
    d.Dist.variance;
  let tau = d.Dist.quantile 0.999999 *. 100.0 in
  let cm = d.Dist.conditional_mean tau in
  Alcotest.(check bool) "lognormal deep-tail cond mean > tau" true
    (Float.is_finite cm && cm > tau)

let test_lognormal_of_moments () =
  let d = Distributions.Lognormal.of_moments ~mean:10.0 ~std:3.0 in
  rel_close "of_moments mean" 10.0 d.Dist.mean ~tol:1e-9;
  rel_close "of_moments std" 3.0 (Dist.std d) ~tol:1e-9

let test_truncated_normal_formulas () =
  (* With lower far below mu the law is the parent normal. *)
  let d = Distributions.Truncated_normal.make ~mu:8.0 ~sigma:(sqrt 2.0) ~lower:0.0 in
  rel_close "tn mean ~ mu" 8.0 d.Dist.mean ~tol:1e-6;
  rel_close "tn variance ~ sigma^2" 2.0 d.Dist.variance ~tol:1e-5;
  (* Hard truncation at the mean: classical half-normal results. *)
  let h = Distributions.Truncated_normal.make ~mu:0.0 ~sigma:1.0 ~lower:0.0 in
  rel_close "half-normal mean" (sqrt (2.0 /. (4.0 *. atan 1.0))) h.Dist.mean
    ~tol:1e-9;
  rel_close "half-normal variance"
    (1.0 -. (2.0 /. (4.0 *. atan 1.0)))
    h.Dist.variance ~tol:1e-9;
  (* Inverse Mills asymptotics. *)
  let im = Distributions.Truncated_normal.inverse_mills in
  rel_close "mills(0)" (sqrt (2.0 /. (4.0 *. atan 1.0))) (im 0.0) ~tol:1e-9;
  rel_close "mills(30) ~ 30 + 1/30" (30.0 +. (1.0 /. 30.0)) (im 30.0) ~tol:1e-4

let test_pareto_formulas () =
  let d = Distributions.Pareto.default in
  rel_close "pareto mean" 2.25 d.Dist.mean;
  rel_close "pareto variance" (3.0 *. 2.25 /. (4.0 *. 1.0)) d.Dist.variance;
  rel_close "pareto cond mean is alpha/(alpha-1) tau" 4.5
    (d.Dist.conditional_mean 3.0);
  (* alpha <= 1: infinite mean. *)
  let heavy = Distributions.Pareto.make ~nu:1.0 ~alpha:0.9 in
  Alcotest.(check bool) "heavy pareto has infinite mean" true
    (* stochlint: allow FLOAT_EQ — infinity is an exact sentinel, not a computed value *)
    (heavy.Dist.mean = infinity)

let test_uniform_formulas () =
  let d = Distributions.Uniform_dist.default in
  rel_close "uniform mean" 15.0 d.Dist.mean;
  rel_close "uniform variance" (100.0 /. 12.0) d.Dist.variance;
  rel_close "uniform cond mean (b + tau)/2" 17.5 (d.Dist.conditional_mean 15.0);
  rel_close "uniform quantile" 12.5 (d.Dist.quantile 0.25)

let test_beta_formulas () =
  let d = Distributions.Beta_dist.default in
  rel_close "beta mean" 0.5 d.Dist.mean;
  rel_close "beta variance" 0.05 d.Dist.variance;
  (* Symmetric Beta(2,2): median = 1/2. *)
  rel_close "beta median" 0.5 (Dist.median d) ~tol:1e-9;
  (* pdf of Beta(2,2) at 1/2 is 1.5. *)
  rel_close "beta pdf(0.5)" 1.5 (d.Dist.pdf 0.5)

let test_bounded_pareto_formulas () =
  let d = Distributions.Bounded_pareto.default in
  (* Table 5 mean formula, L=1, H=20, alpha=2.1. *)
  let l = 1.0 and h = 20.0 and alpha = 2.1 in
  let mean =
    alpha /. (alpha -. 1.0)
    *. (((h ** alpha) *. l) -. (h *. (l ** alpha)))
    /. ((h ** alpha) -. (l ** alpha))
  in
  rel_close "bp mean" mean d.Dist.mean;
  rel_close "bp cond mean at H" 20.0 (d.Dist.conditional_mean 20.0);
  (* alpha = 2 uses the special-cased second moment. *)
  let d2 = Distributions.Bounded_pareto.make ~l:1.0 ~h:10.0 ~alpha:2.0 in
  let ex2 =
    Numerics.Integrate.gauss_kronrod ~initial:16
      (fun t -> t *. t *. d2.Dist.pdf t)
      1.0 10.0
  in
  rel_close "bp alpha=2 variance" (ex2 -. (d2.Dist.mean ** 2.0)) d2.Dist.variance
    ~tol:1e-6

let test_constructor_validation () =
  Alcotest.(check bool) "bad exponential" true
    (try ignore (Distributions.Exponential.make ~rate:0.0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad uniform" true
    (try ignore (Distributions.Uniform_dist.make ~a:5.0 ~b:5.0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bounded pareto alpha = 1" true
    (try ignore (Distributions.Bounded_pareto.make ~l:1.0 ~h:2.0 ~alpha:1.0); false
     with Invalid_argument _ -> true)

let test_table1_find () =
  Alcotest.(check bool) "find lognormal" true
    (Distributions.Table1.find "LOGNORMAL" <> None);
  Alcotest.(check bool) "find unknown" true
    (Distributions.Table1.find "cauchy" = None);
  Alcotest.(check int) "nine distributions" 9
    (List.length Distributions.Table1.all)

(* ------------------------- properties ----------------------------- *)

let dist_gen =
  QCheck.Gen.oneofl (List.map snd all)

let arbitrary_dist =
  QCheck.make ~print:(fun d -> d.Dist.name) dist_gen

let prop_cdf_monotone =
  QCheck.Test.make ~count:500 ~name:"cdf is nondecreasing"
    QCheck.(pair arbitrary_dist (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (d, (p1, p2)) ->
      let t1 = d.Dist.quantile (Float.min p1 p2 *. 0.999) in
      let t2 = d.Dist.quantile (Float.max p1 p2 *. 0.999) in
      d.Dist.cdf t1 <= d.Dist.cdf t2 +. 1e-12)

let prop_conditional_mean_above_tau =
  QCheck.Test.make ~count:500 ~name:"E[X | X > tau] > tau inside the support"
    QCheck.(pair arbitrary_dist (float_range 0.01 0.99))
    (fun (d, p) ->
      let tau = d.Dist.quantile p in
      d.Dist.conditional_mean tau > tau)

let prop_conditional_mean_monotone =
  QCheck.Test.make ~count:300 ~name:"E[X | X > tau] is nondecreasing in tau"
    QCheck.(pair arbitrary_dist (pair (float_range 0.01 0.98) (float_range 0.01 0.98)))
    (fun (d, (p1, p2)) ->
      let t1 = d.Dist.quantile (Float.min p1 p2) in
      let t2 = d.Dist.quantile (Float.max p1 p2) in
      d.Dist.conditional_mean t1 <= d.Dist.conditional_mean t2 +. 1e-9)

let prop_pdf_nonnegative =
  QCheck.Test.make ~count:500 ~name:"pdf is nonnegative"
    QCheck.(pair arbitrary_dist (float_range 0.0 100.0))
    (fun (d, t) -> d.Dist.pdf t >= 0.0)

(* TruncatedNormal takes its constant erf (alpha / sqrt 2) once per law;
   cdf and quantile must be those of the form that took it on every
   call, bit for bit. The cdf divides by 1 - erf (alpha / sqrt 2). *)
let prop_truncated_normal_hoisted =
  QCheck.Test.make ~count:1000 ~name:"truncated normal cdf, quantile = unhoisted form, bit for bit"
    QCheck.(
      quad (float_range (-5.0) 15.0) (float_range 0.1 5.0) (float_range 0.0 10.0)
        (float_range 0.0 1.0))
    (fun (mu, sigma, lower, u) ->
      let module Sf = Numerics.Specfun in
      let sqrt2 = sqrt 2.0 in
      let alpha = (lower -. mu) /. sigma in
      let z_norm = 0.5 *. Sf.erfc (alpha /. sqrt2) in
      QCheck.assume (z_norm > 0.0);
      let d = Distributions.Truncated_normal.make ~mu ~sigma ~lower in
      let cdf t =
        if t <= lower then 0.0
        else
          Float.min 1.0
            ((Sf.erf ((t -. mu) /. (sigma *. sqrt2)) -. Sf.erf (alpha /. sqrt2))
            /. (1.0 -. Sf.erf (alpha /. sqrt2)))
      in
      let quantile x =
        (* stochlint: allow FLOAT_EQ — the law's own endpoint sentinel, x = 1 *)
        if x = 1.0 then infinity
        else mu +. (sigma *. sqrt2 *. Sf.erf_inv (x +. ((1.0 -. x) *. Sf.erf (alpha /. sqrt2))))
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let t = lower +. (u *. 6.0 *. sigma) in
      same (d.Dist.cdf t) (cdf t) && same (d.Dist.quantile u) (quantile u))

(* Far in the upper tail the TruncatedNormal cdf is exactly 1, so that
   1 - cdf reaches the Eq. (4) series' stop. Divided by
   erfc (alpha / sqrt 2) instead of 1 - erf (alpha / sqrt 2), libm's
   rounding left it at 1 - 2^-53 on laws such as TruncNormal(5.98282,
   0.812432), whose solves then reported a NaN cost. *)
let prop_truncated_normal_reaches_one =
  QCheck.Test.make ~count:1000 ~name:"truncated normal cdf is 1 far in the tail"
    QCheck.(pair (float_range 0.5 100.0) (float_range 1e-3 0.5))
    (fun (mu, rel) ->
      let sigma = mu *. rel in
      let d = Distributions.Truncated_normal.make ~mu ~sigma ~lower:0.0 in
      (* stochlint: allow FLOAT_EQ — the tail value must be exactly 1, not near it *)
      d.Dist.cdf (mu +. (40.0 *. sigma)) = 1.0)

let () =
  Alcotest.run "distributions"
    [
      ( "battery",
        [
          Alcotest.test_case "pdf integrates to 1" `Quick test_pdf_integrates_to_one;
          Alcotest.test_case "cdf = integral of pdf" `Quick
            test_cdf_matches_pdf_integral;
          Alcotest.test_case "quantile/cdf roundtrip" `Quick
            test_quantile_cdf_roundtrip;
          Alcotest.test_case "mean vs quadrature" `Quick test_mean_matches_quadrature;
          Alcotest.test_case "variance vs quadrature" `Quick
            test_variance_matches_quadrature;
          Alcotest.test_case "conditional mean vs quadrature" `Quick
            test_conditional_mean_matches_quadrature;
          Alcotest.test_case "conditional mean at lower" `Quick
            test_conditional_mean_at_lower_is_mean;
          Alcotest.test_case "sampling moments" `Slow test_sampling_moments;
          Alcotest.test_case "samples in support" `Quick test_samples_in_support;
          Alcotest.test_case "helpers" `Quick test_helpers;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "exponential" `Quick test_exponential_formulas;
          Alcotest.test_case "weibull" `Quick test_weibull_formulas;
          Alcotest.test_case "gamma" `Quick test_gamma_formulas;
          Alcotest.test_case "lognormal" `Quick test_lognormal_formulas;
          Alcotest.test_case "lognormal of_moments" `Quick test_lognormal_of_moments;
          Alcotest.test_case "truncated normal" `Quick test_truncated_normal_formulas;
          Alcotest.test_case "pareto" `Quick test_pareto_formulas;
          Alcotest.test_case "uniform" `Quick test_uniform_formulas;
          Alcotest.test_case "beta" `Quick test_beta_formulas;
          Alcotest.test_case "bounded pareto" `Quick test_bounded_pareto_formulas;
          Alcotest.test_case "constructor validation" `Quick
            test_constructor_validation;
          Alcotest.test_case "table1 find" `Quick test_table1_find;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_cdf_monotone;
          QCheck_alcotest.to_alcotest prop_conditional_mean_above_tau;
          QCheck_alcotest.to_alcotest prop_conditional_mean_monotone;
          QCheck_alcotest.to_alcotest prop_pdf_nonnegative;
          QCheck_alcotest.to_alcotest prop_truncated_normal_hoisted;
          QCheck_alcotest.to_alcotest prop_truncated_normal_reaches_one;
        ] );
    ]
