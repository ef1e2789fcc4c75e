(** Special mathematical functions.

    Every special function the paper's distribution formulas need
    (Table 5 and Appendix A/B): the error function and its inverse, the
    (log-)gamma function, regularized incomplete gamma functions and
    their inverse, and the (incomplete) beta function with its inverse.
    [erf] and [erfc] are libm's ([Float.erf], [Float.erfc]); the rest
    OCaml's standard library does not ship, so they are implemented
    from scratch using the classical series / continued fraction /
    Newton-refinement constructions. Accuracy is close to machine
    precision (relative error around [1e-14]) on the domains used by
    this project; every function is oracle-tested in
    [test/test_specfun.ml]. *)

val log_gamma : float -> float
(** [log_gamma x] is [ln (Gamma x)] for [x > 0], computed with a Lanczos
    approximation (g = 7, 9 coefficients). For [x < 0.5] the reflection
    formula is applied (valid as long as [Gamma x > 0]).
    @raise Invalid_argument if [x] is a non-positive integer or [nan]. *)

val gamma : float -> float
(** [gamma x] is the gamma function [Gamma x] for [x > 0]. Overflows to
    [infinity] for [x] larger than about [171.6]. *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the lower regularized incomplete gamma function
    [P(a, x) = gamma(a, x) / Gamma(a)] for [a > 0], [x >= 0]. Uses the
    power series for [x < a + 1] and the Lentz continued fraction
    otherwise. Staged: [gamma_p a] computes [log_gamma a] once, so a law
    that fixes [a] applies it to each [x] without that cost. *)

val gamma_q : float -> float -> float
(** [gamma_q a x] is the upper regularized incomplete gamma function
    [Q(a, x) = 1 - P(a, x)]. Computed directly from the continued
    fraction when [x >= a + 1], so it stays accurate in the far tail
    where [1 - P] would cancel. Staged as {!gamma_p} is. *)

val upper_incomplete_gamma : float -> float -> float
(** [upper_incomplete_gamma a x] is the non-regularized upper incomplete
    gamma function [Gamma(a, x) = integral_x^inf t^(a-1) e^(-t) dt]
    (used by the Weibull and Gamma MEAN-BY-MEAN recursions of Appendix
    B). *)

val inverse_gamma_p : float -> float -> float
(** [inverse_gamma_p a p] is the value [x] such that [gamma_p a x = p],
    for [p] in [[0, 1]]. Initial guess by Wilson–Hilferty (for [a > 1])
    or a small-[a] split, refined by safeguarded Newton iterations.
    Returns [0.] at [p = 0] and [infinity] at [p = 1]. *)

val erf : float -> float
(** [erf x] is the error function, libm's [Float.erf]: within 1 ulp of
    mpmath on [[-6, 27]], and several times cheaper than
    [sign(x) P(1/2, x^2)], which [test/erf_oracle.ml] keeps as the
    oracle. *)

val erfc : float -> float
(** [erfc x] is the complementary error function [1 - erf x], libm's
    [Float.erfc]: accurate in the tail, within 2 ulp of mpmath on
    [[-6, 27]] (into the subnormals), where [Q(1/2, x^2)] was off by
    1e-14 relative near [x = 1.2] and by over 900 ulp at [x = 23]. *)

val erf_inv : float -> float
(** [erf_inv z] is the inverse error function on [(-1, 1)]. Returns
    [neg_infinity] / [infinity] at the closed endpoints. *)

val normal_cdf : float -> float
(** [normal_cdf x] is the standard normal cumulative distribution
    function [Phi(x)]. *)

val normal_quantile : float -> float
(** [normal_quantile p] is [Phi^(-1)(p)] for [p] in [(0, 1)]: Acklam's
    rational approximation refined with one Halley step against
    [erfc]. Accurate to full double precision. *)

val log_beta : float -> float -> float
(** [log_beta a b] is [ln (B(a, b))] for [a, b > 0]. *)

val beta_fun : float -> float -> float
(** [beta_fun a b] is the (complete) beta function [B(a, b)]. *)

val betai : float -> float -> float -> float
(** [betai a b x] is the regularized incomplete beta function
    [I_x(a, b)] for [x] in [[0, 1]], via the Lentz continued fraction
    with the symmetry split at [x = (a+1)/(a+b+2)]. Staged: [betai a b]
    computes its log-gamma terms once, so a law that fixes [a] and [b]
    applies it to each [x] without that cost. *)

val incomplete_beta : float -> float -> float -> float
(** [incomplete_beta a b x] is the non-regularized incomplete beta
    function [B(x; a, b) = I_x(a, b) * B(a, b)] (used by the Beta
    MEAN-BY-MEAN recursion of Appendix B.7). *)

val inverse_betai : float -> float -> float -> float
(** [inverse_betai a b p] is the value [x] with [betai a b x = p].
    Abramowitz–Stegun 26.5.22 initial guess (from the upper-tail normal
    deviate of [p]) refined by up to 16 safeguarded Halley steps, which
    stop once an iterate repeats, with the result the full 16 would
    reach; a bisection backs up a residual above [1e-12]. Exact at the
    endpoints. *)
