module Sf = Numerics.Specfun

let sqrt2 = sqrt 2.0
let sqrt_2pi = sqrt (8.0 *. atan 1.0)

let phi z = exp (-0.5 *. z *. z) /. sqrt_2pi

let inverse_mills z =
  if z < 25.0 then phi z /. (0.5 *. Sf.erfc (z /. sqrt2))
  else begin
    (* phi(z)/(1 - Phi(z)) ~ z + 1/z - 2/z^3 for large z. *)
    let z2 = z *. z in
    z +. (1.0 /. z) -. (2.0 /. (z2 *. z))
  end

let make ~mu ~sigma ~lower =
  if sigma <= 0.0 then
    invalid_arg "Truncated_normal.make: sigma must be positive";
  if lower < 0.0 then
    invalid_arg "Truncated_normal.make: lower must be nonnegative";
  let alpha = (lower -. mu) /. sigma in
  (* Mass of the parent normal above the truncation point. *)
  let z_norm = 0.5 *. Sf.erfc (alpha /. sqrt2) in
  if z_norm <= 0.0 then
    invalid_arg "Truncated_normal.make: truncation removes all the mass";
  let erf_alpha = Sf.erf (alpha /. sqrt2) in
  (* The cdf divides by the top of its numerator, erf(inf) - erf_alpha,
     so it reaches 1 exactly where erf rounds to 1. With
     erfc (alpha / sqrt2) there instead, libm's erf and erfc can round
     apart and leave the cdf a ulp short of 1 for good: 1 - cdf then
     never reaches the Eq. (4) series' 1e-16 stop. *)
  let cdf_den = 1.0 -. erf_alpha in
  let pdf t =
    if t < lower then 0.0
    else phi ((t -. mu) /. sigma) /. (sigma *. z_norm)
  in
  let cdf t =
    if t <= lower then 0.0
    else begin
      let num = Sf.erf ((t -. mu) /. (sigma *. sqrt2)) -. erf_alpha in
      Float.min 1.0 (num /. cdf_den)
    end
  in
  let quantile x =
    if x < 0.0 || x > 1.0 then
      invalid_arg "Truncated_normal.quantile: x must be in [0, 1]";
    (* stochlint: allow FLOAT_EQ — quantile endpoint sentinel: x = 1 maps to +inf *)
    if x = 1.0 then infinity
    else begin
      (* Table 5: Q(x) = mu + sigma sqrt2 erf^-1 (z),
         z = x + (1 - x) erf (alpha / sqrt2). *)
      let z = x +. ((1.0 -. x) *. erf_alpha) in
      mu +. (sigma *. sqrt2 *. Sf.erf_inv z)
    end
  in
  let lam = inverse_mills alpha in
  let mean = mu +. (sigma *. lam) in
  let variance =
    sigma *. sigma *. (1.0 +. (alpha *. lam) -. (lam *. lam))
  in
  let conditional_mean tau =
    let tau = Float.max tau lower in
    mu +. (sigma *. inverse_mills ((tau -. mu) /. sigma))
  in
  {
    Dist.name = Printf.sprintf "TruncatedNormal(%g, %g, %g)" mu (sigma *. sigma) lower;
    support = Dist.Unbounded lower;
    pdf;
    cdf;
    quantile;
    mean;
    variance;
    sample =
      (fun rng -> Randomness.Sampler.truncated_normal rng ~mu ~sigma ~lower);
    conditional_mean;
  }

let default = make ~mu:8.0 ~sigma:(sqrt 2.0) ~lower:0.0
