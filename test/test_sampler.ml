(* Moment-matching tests for the variate samplers: for each sampler,
   draw a large sample and compare empirical mean/variance with the
   analytic values. Tolerances are several standard errors wide so the
   tests are deterministic for the fixed seeds used. *)

module Rng = Randomness.Rng
module Sampler = Randomness.Sampler

let n = 200_000

let moments f =
  let rng = Rng.create ~seed:2024 () in
  let xs = Array.init n (fun _ -> f rng) in
  (Numerics.Stats.mean xs, Numerics.Stats.std xs ** 2.0)

let check_moments name f ~mean ~variance ~tol_mean ~tol_var =
  let m, v = moments f in
  Alcotest.(check (float tol_mean)) (name ^ " mean") mean m;
  Alcotest.(check (float tol_var)) (name ^ " variance") variance v

(* The normal draws surface as the logarithm of a lognormal draw. *)
let test_standard_normal () =
  check_moments "N(0,1)"
    (fun rng -> log (Sampler.lognormal rng ~mu:0.0 ~sigma:1.0))
    ~mean:0.0 ~variance:1.0 ~tol_mean:0.01 ~tol_var:0.02

let test_normal () =
  check_moments "N(3, 4)"
    (fun rng -> log (Sampler.lognormal rng ~mu:3.0 ~sigma:2.0))
    ~mean:3.0 ~variance:4.0 ~tol_mean:0.02 ~tol_var:0.08

let test_exponential () =
  check_moments "Exp(2)" (fun rng -> Sampler.exponential rng ~rate:2.0)
    ~mean:0.5 ~variance:0.25 ~tol_mean:0.005 ~tol_var:0.01

let test_gamma_big_shape () =
  check_moments "Gamma(4, 0.5)" (fun rng -> Sampler.gamma rng ~shape:4.0 ~scale:0.5)
    ~mean:2.0 ~variance:1.0 ~tol_mean:0.01 ~tol_var:0.05

let test_gamma_small_shape () =
  (* Exercises the shape < 1 boost path. *)
  check_moments "Gamma(0.5, 2)" (fun rng -> Sampler.gamma rng ~shape:0.5 ~scale:2.0)
    ~mean:1.0 ~variance:2.0 ~tol_mean:0.02 ~tol_var:0.15

let test_beta () =
  check_moments "Beta(2, 3)" (fun rng -> Sampler.beta rng ~a:2.0 ~b:3.0)
    ~mean:0.4 ~variance:0.04 ~tol_mean:0.005 ~tol_var:0.005

let test_lognormal () =
  let mu = 0.5 and sigma = 0.75 in
  let mean = exp (mu +. (sigma *. sigma /. 2.0)) in
  let variance =
    (exp (sigma *. sigma) -. 1.0) *. exp ((2.0 *. mu) +. (sigma *. sigma))
  in
  check_moments "LogNormal(0.5, 0.75)"
    (fun rng -> Sampler.lognormal rng ~mu ~sigma)
    ~mean ~variance ~tol_mean:0.05 ~tol_var:(0.08 *. variance)

let test_weibull () =
  let lambda = 2.0 and k = 1.5 in
  let g = Numerics.Specfun.gamma in
  let mean = lambda *. g (1.0 +. (1.0 /. k)) in
  let variance =
    lambda *. lambda *. (g (1.0 +. (2.0 /. k)) -. (g (1.0 +. (1.0 /. k)) ** 2.0))
  in
  check_moments "Weibull(2, 1.5)"
    (fun rng -> Sampler.weibull rng ~lambda ~k)
    ~mean ~variance ~tol_mean:0.02 ~tol_var:(0.1 *. variance)

let test_pareto () =
  let nu = 1.5 and alpha = 3.0 in
  let mean = alpha *. nu /. (alpha -. 1.0) in
  let variance =
    alpha *. nu *. nu /. (((alpha -. 1.0) ** 2.0) *. (alpha -. 2.0))
  in
  check_moments "Pareto(1.5, 3)"
    (fun rng -> Sampler.pareto rng ~nu ~alpha)
    ~mean ~variance ~tol_mean:0.03 ~tol_var:(0.4 *. variance)

let test_truncated_normal_shallow () =
  (* mu = 8, sigma = sqrt 2, lower = 0: truncation negligible, moments
     essentially the parent's. *)
  check_moments "TN(8, 2, 0)"
    (fun rng ->
      Sampler.truncated_normal rng ~mu:8.0 ~sigma:(sqrt 2.0) ~lower:0.0)
    ~mean:8.0 ~variance:2.0 ~tol_mean:0.02 ~tol_var:0.05

let test_truncated_normal_deep_tail () =
  (* lower = mu + 4 sigma: exercises the exponential-tilting branch and
     must stay above the truncation point. *)
  let rng = Rng.create ~seed:11 () in
  for _ = 1 to 20_000 do
    let x = Sampler.truncated_normal rng ~mu:0.0 ~sigma:1.0 ~lower:4.0 in
    if x < 4.0 then Alcotest.failf "deep-tail sample below truncation: %g" x
  done;
  (* Analytic conditional mean: lambda(4) ~ 4.2224. *)
  let m =
    let rng = Rng.create ~seed:12 () in
    Numerics.Stats.mean
      (Array.init 50_000 (fun _ ->
           Sampler.truncated_normal rng ~mu:0.0 ~sigma:1.0 ~lower:4.0))
  in
  Alcotest.(check (float 0.01)) "deep-tail mean ~ inverse Mills at 4" 4.2224 m

let test_invalid_args () =
  let rng = Rng.create () in
  Alcotest.check_raises "gamma shape <= 0"
    (Invalid_argument "Sampler.gamma: shape and scale must be positive")
    (fun () -> ignore (Sampler.gamma rng ~shape:0.0 ~scale:1.0));
  Alcotest.check_raises "lognormal sigma <= 0"
    (Invalid_argument "Sampler.lognormal: sigma must be positive") (fun () ->
      ignore (Sampler.lognormal rng ~mu:0.0 ~sigma:0.0));
  Alcotest.check_raises "exponential rate <= 0"
    (Invalid_argument "Sampler.exponential: rate must be positive") (fun () ->
      ignore (Sampler.exponential rng ~rate:(-1.0)))

let () =
  Alcotest.run "sampler"
    [
      ( "moments",
        [
          Alcotest.test_case "standard normal" `Quick test_standard_normal;
          Alcotest.test_case "normal" `Quick test_normal;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "gamma (shape >= 1)" `Quick test_gamma_big_shape;
          Alcotest.test_case "gamma (shape < 1)" `Quick test_gamma_small_shape;
          Alcotest.test_case "beta" `Quick test_beta;
          Alcotest.test_case "lognormal" `Quick test_lognormal;
          Alcotest.test_case "weibull" `Quick test_weibull;
          Alcotest.test_case "pareto" `Quick test_pareto;
          Alcotest.test_case "truncated normal (shallow)" `Quick
            test_truncated_normal_shallow;
          Alcotest.test_case "truncated normal (deep tail)" `Quick
            test_truncated_normal_deep_tail;
        ] );
      ("errors", [ Alcotest.test_case "invalid args" `Quick test_invalid_args ]);
    ]
