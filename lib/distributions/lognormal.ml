module Sf = Numerics.Specfun

let sqrt2 = sqrt 2.0
let sqrt_2pi = sqrt (8.0 *. atan 1.0)

(* erfc (y - c) / erfc y for c > 0, stable for large y where both
   terms underflow: switches to the ratio of the leading asymptotic
   expansions, erfc u ~ e^(-u^2) / (u sqrt pi). *)
let erfc_ratio ~c y =
  if y < 25.0 then Sf.erfc (y -. c) /. Sf.erfc y
  else exp (c *. ((2.0 *. y) -. c)) *. (y /. (y -. c))

let check ~sigma =
  if sigma <= 0.0 then invalid_arg "Lognormal.make: sigma must be positive"

let make ~mu ~sigma =
  check ~sigma;
  let pdf t =
    if t <= 0.0 then 0.0
    else begin
      let z = (log t -. mu) /. sigma in
      exp (-0.5 *. z *. z) /. (t *. sigma *. sqrt_2pi)
    end
  in
  let cdf t =
    if t <= 0.0 then 0.0
    else 0.5 *. Sf.erfc (-.(log t -. mu) /. (sqrt2 *. sigma))
  in
  let quantile x =
    if x < 0.0 || x > 1.0 then
      invalid_arg "Lognormal.quantile: x must be in [0, 1]";
    (* stochlint: allow FLOAT_EQ — quantile endpoint sentinel: x = 0 maps to the support lower bound *)
    if x = 0.0 then 0.0
    (* stochlint: allow FLOAT_EQ — quantile endpoint sentinel: x = 1 maps to +inf *)
    else if x = 1.0 then infinity
    else exp ((sqrt2 *. sigma *. Sf.erf_inv ((2.0 *. x) -. 1.0)) +. mu)
  in
  let mean = exp (mu +. (sigma *. sigma /. 2.0)) in
  let variance =
    (exp (sigma *. sigma) -. 1.0) *. exp ((2.0 *. mu) +. (sigma *. sigma))
  in
  (* Appendix B.3 rewritten with erfc: with y = (ln tau - mu)/(sqrt2
     sigma), E[X | X > tau] = e^(mu + sigma^2/2) erfc (y - sigma/sqrt2)
     / erfc y. *)
  let conditional_mean tau =
    if tau <= 0.0 then mean
    else begin
      let y = (log tau -. mu) /. (sqrt2 *. sigma) in
      mean *. erfc_ratio ~c:(sigma /. sqrt2) y
    end
  in
  {
    Dist.name = Printf.sprintf "LogNormal(%g, %g)" mu sigma;
    support = Dist.Unbounded 0.0;
    pdf;
    cdf;
    quantile;
    mean;
    variance;
    sample = (fun rng -> Randomness.Sampler.lognormal rng ~mu ~sigma);
    conditional_mean;
  }

let of_moments ~mean ~std =
  if mean <= 0.0 || std <= 0.0 then
    invalid_arg "Lognormal.of_moments: mean and std must be positive";
  let ratio = std /. mean in
  let sigma2 = log (1.0 +. (ratio *. ratio)) in
  let mu = log mean -. (sigma2 /. 2.0) in
  make ~mu ~sigma:(sqrt sigma2)

let default = make ~mu:3.0 ~sigma:0.5
let neuro = make ~mu:7.1128 ~sigma:0.2039
