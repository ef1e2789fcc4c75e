module Sf = Numerics.Specfun

let make ~shape ~rate =
  if shape <= 0.0 || rate <= 0.0 then
    invalid_arg "Gamma_dist.make: shape and rate must be positive";
  let log_norm = (shape *. log rate) -. Sf.log_gamma shape in
  let pdf t =
    if t < 0.0 then 0.0
    (* stochlint: allow FLOAT_EQ — pdf endpoint special case: t = 0 handled exactly *)
    else if t = 0.0 then
      (* stochlint: allow FLOAT_EQ — shape = 1 selects the closed-form endpoint density *)
      (if shape < 1.0 then infinity else if shape = 1.0 then rate else 0.0)
    else exp (log_norm +. ((shape -. 1.0) *. log t) -. (rate *. t))
  in
  let gamma_p = Sf.gamma_p shape in
  let cdf t = if t <= 0.0 then 0.0 else gamma_p (rate *. t) in
  let quantile x =
    if x < 0.0 || x > 1.0 then
      invalid_arg "Gamma_dist.quantile: x must be in [0, 1]";
    Sf.inverse_gamma_p shape x /. rate
  in
  (* Appendix B.2: E[X | X > tau] = alpha/beta + z^alpha e^-z /
     (Gamma(alpha, z) beta) with z = beta tau; evaluated in log space
     with an asymptotic fallback for z > 600 where Gamma(alpha, z)
     underflows. *)
  let conditional_mean tau =
    if tau <= 0.0 then shape /. rate
    else begin
      let z = rate *. tau in
      let ratio =
        (* z^alpha e^-z / Gamma(alpha, z) *)
        if z > 600.0 then begin
          let a1 = shape -. 1.0 in
          z /. (1.0 +. (a1 /. z) +. (a1 *. (a1 -. 1.0) /. (z *. z)))
        end
        else begin
          let q = Sf.gamma_q shape z in
          exp ((shape *. log z) -. z -. (Sf.log_gamma shape +. log q))
        end
      in
      (shape /. rate) +. (ratio /. rate)
    end
  in
  {
    Dist.name = Printf.sprintf "Gamma(%g, %g)" shape rate;
    support = Dist.Unbounded 0.0;
    pdf;
    cdf;
    quantile;
    mean = shape /. rate;
    variance = shape /. (rate *. rate);
    sample =
      (fun rng -> Randomness.Sampler.gamma rng ~shape ~scale:(1.0 /. rate));
    conditional_mean;
  }

let default = make ~shape:2.0 ~rate:2.0
