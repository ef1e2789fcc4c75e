module Sf = Numerics.Specfun

let make ~alpha ~beta =
  if alpha <= 0.0 || beta <= 0.0 then
    invalid_arg "Beta_dist.make: alpha and beta must be positive";
  let log_b = Sf.log_beta alpha beta in
  let pdf t =
    if t < 0.0 || t > 1.0 then 0.0
    (* stochlint: allow FLOAT_EQ — pdf endpoint special case: t = 0 handled exactly *)
    else if t = 0.0 then
      (* stochlint: allow FLOAT_EQ — alpha = 1 selects the closed-form endpoint density *)
      (if alpha < 1.0 then infinity else if alpha = 1.0 then exp (-.log_b) else 0.0)
    (* stochlint: allow FLOAT_EQ — pdf endpoint special case: t = 1 handled exactly *)
    else if t = 1.0 then
      (* stochlint: allow FLOAT_EQ — beta = 1 selects the closed-form endpoint density *)
      (if beta < 1.0 then infinity else if beta = 1.0 then exp (-.log_b) else 0.0)
    else
      exp (((alpha -. 1.0) *. log t) +. ((beta -. 1.0) *. log (1.0 -. t)) -. log_b)
  in
  let betai = Sf.betai alpha beta in
  let cdf t =
    if t <= 0.0 then 0.0 else if t >= 1.0 then 1.0 else betai t
  in
  let quantile x =
    if x < 0.0 || x > 1.0 then
      invalid_arg "Beta_dist.quantile: x must be in [0, 1]";
    Sf.inverse_betai alpha beta x
  in
  let b_ab = Sf.beta_fun alpha beta in
  let b_a1b = Sf.beta_fun (alpha +. 1.0) beta in
  (* Appendix B.7. *)
  let conditional_mean tau =
    if tau <= 0.0 then alpha /. (alpha +. beta)
    else if tau >= 1.0 then 1.0
    else begin
      let num = b_a1b -. Sf.incomplete_beta (alpha +. 1.0) beta tau in
      let den = b_ab -. Sf.incomplete_beta alpha beta tau in
      if den <= 0.0 then 1.0 else num /. den
    end
  in
  let s = alpha +. beta in
  {
    Dist.name = Printf.sprintf "Beta(%g, %g)" alpha beta;
    support = Dist.Bounded (0.0, 1.0);
    pdf;
    cdf;
    quantile;
    mean = alpha /. s;
    variance = alpha *. beta /. (s *. s *. (s +. 1.0));
    sample = (fun rng -> Randomness.Sampler.beta rng ~a:alpha ~b:beta);
    conditional_mean;
  }

let default = make ~alpha:2.0 ~beta:2.0
