(** Frechet (inverse Weibull) distribution [Frechet(shape, scale)] on
    [(0, inf)].

    CDF [F(t) = exp (-(t/scale)^-shape)] — the max-stable heavy-tail
    law; models worst-case-dominated execution times. Conditional
    expectation via the lower incomplete gamma function:
    [E(X | X > tau) = scale * gamma_lower(1 - 1/shape, u) /
    (1 - exp (-u))] with [u = (tau/scale)^-shape]. *)

(* stochlint: allow UNUSED_EXPORT — test_extended_distributions and test_fuzz_solvers build off-default instances *)
val make : shape:float -> scale:float -> Dist.t
(** [make ~shape ~scale] requires [shape > 1] so the mean is finite.
    For [1 < shape <= 2] the variance is reported as [infinity]
    (the second moment diverges), so solvers that need the Theorem 2
    bounds must fall back to discretization-based tiers.
    @raise Invalid_argument if [shape <= 1] or [scale <= 0]. *)

val default : Dist.t
(** [Frechet(3.0, 1.5)]. *)

val heavy_tail : Dist.t
(** [Frechet(1.5, 1.5)]: finite mean, infinite variance. Deliberately
    not in {!Registry} (the registry promises raw-solver
    compatibility, and the Theorem 2 bounds need a second moment);
    the CLI exposes it as ["frechetheavy"] to exercise the robust
    solver's fallback cascade. *)
