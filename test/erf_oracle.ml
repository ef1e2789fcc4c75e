(* The error function through the regularized incomplete gamma,
   erf x = sign(x) P(1/2, x^2) and erfc x = Q(1/2, x^2) for x >= 0:
   the library's route before it took libm's [Float.erf]/[Float.erfc],
   kept as the test oracle. *)

module Sf = Numerics.Specfun

let erf x =
  (* stochlint: allow FLOAT_EQ — erf(0) = 0 exactly; avoids the gamma_p singularity at 0 *)
  if x = 0.0 then 0.0
  else if x > 0.0 then Sf.gamma_p 0.5 (x *. x)
  else -.Sf.gamma_p 0.5 (x *. x)

let erfc x = if x >= 0.0 then Sf.gamma_q 0.5 (x *. x) else 1.0 +. Sf.gamma_p 0.5 (x *. x)
