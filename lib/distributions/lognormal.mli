(** LogNormal distribution [LogNormal(mu, sigma^2)] on [(0, inf)].

    Density [f(t) = 1/(t sigma sqrt(2 pi)) exp (-(ln t - mu)^2 /
    (2 sigma^2))]. This is the paper's headline distribution: both
    neuroscience applications of Fig. 1 are fitted to LogNormal laws,
    and the NEUROHPC scenario of Sect. 5.3 uses
    [LogNormal(7.1128, 0.2039^2)] seconds. The conditional expectation
    follows Appendix B.3, rewritten in terms of [erfc] so that it stays
    finite deep in the tail. *)

val make : mu:float -> sigma:float -> Dist.t
(** [make ~mu ~sigma] is LogNormal with log-mean [mu] and log-std
    [sigma].
    @raise Invalid_argument if [sigma <= 0.]. *)

val check : sigma:float -> unit
(** [check ~sigma] raises exactly when {!make} would, without building
    the law.
    @raise Invalid_argument if [sigma <= 0.]. *)

val of_moments : mean:float -> std:float -> Dist.t
(** [of_moments ~mean ~std] instantiates the LogNormal whose (linear)
    mean and standard deviation are the given values — the inversion of
    footnote 4 used by the Fig. 4 robustness sweep:
    [sigma^2 = ln (1 + (std/mean)^2)], [mu = ln mean - sigma^2 / 2].
    @raise Invalid_argument if [mean <= 0.] or [std <= 0.]. *)

val default : Dist.t
(** Table 1 instantiation: [LogNormal(3.0, 0.5)]. *)

val neuro : Dist.t
(** Sect. 5.3 instantiation fitted on the VBMQA traces:
    [LogNormal(7.1128, 0.2039)] (seconds). *)
