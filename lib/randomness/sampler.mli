(** Random variate generation for the standard distributions.

    Exact (rejection-free or standard-rejection) samplers layered over
    {!Rng}. The distribution modules in [lib/distributions] call these
    rather than inverting their CDFs where a direct method is faster or
    more accurate. *)

val exponential : Rng.t -> rate:float -> float
(** [exponential rng ~rate] draws Exp(rate) by inversion.
    @raise Invalid_argument if [rate <= 0.]. *)

val gamma : Rng.t -> shape:float -> scale:float -> float
(** [gamma rng ~shape ~scale] draws Gamma(shape, scale) — scale, not
    rate — with the Marsaglia–Tsang squeeze method, boosted to
    [shape < 1] via the power transformation.
    @raise Invalid_argument if [shape <= 0.] or [scale <= 0.]. *)

val beta : Rng.t -> a:float -> b:float -> float
(** [beta rng ~a ~b] draws Beta(a, b) as [X/(X+Y)] with independent
    gammas.
    @raise Invalid_argument if [a <= 0.] or [b <= 0.]. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** [lognormal rng ~mu ~sigma] draws LogNormal(mu, sigma^2) as
    [exp (normal)].
    @raise Invalid_argument if [sigma <= 0.]. *)

val weibull : Rng.t -> lambda:float -> k:float -> float
(** [weibull rng ~lambda ~k] draws Weibull(scale lambda, shape k) by
    inversion.
    @raise Invalid_argument if [lambda <= 0.] or [k <= 0.]. *)

val pareto : Rng.t -> nu:float -> alpha:float -> float
(** [pareto rng ~nu ~alpha] draws Pareto(scale nu, shape alpha) by
    inversion.
    @raise Invalid_argument if [nu <= 0.] or [alpha <= 0.]. *)

val truncated_normal : Rng.t -> mu:float -> sigma:float -> lower:float -> float
(** [truncated_normal rng ~mu ~sigma ~lower] draws N(mu, sigma^2)
    conditioned on being at least [lower], by rejection from the parent
    normal (efficient whenever the truncation point is not deep in the
    upper tail, which holds for the paper's instantiation) with an
    exponential-tilting fallback for deep tails.
    @raise Invalid_argument if [sigma <= 0.]. *)
