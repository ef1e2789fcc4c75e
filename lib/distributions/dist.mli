(** Common interface for execution-time distributions.

    The paper models a stochastic job as a nonnegative random variable
    [X ~ D] with density [f], CDF [F] and quantile function [Q], whose
    support is either a finite interval [[a, b]] or a half line
    [[a, inf)]. Every concrete distribution module in this library
    ([Exponential], [Weibull], ..., [Empirical]) produces a value of
    {!type:t}; all scheduling code is written against this interface
    only, so new distributions can be added without touching the
    solvers. *)

type support =
  | Bounded of float * float  (** Finite support [[a, b]], [0 <= a < b]. *)
  | Unbounded of float  (** Half-line support [[a, inf)], [0 <= a]. *)

type t = {
  name : string;  (** Human-readable name, e.g. ["LogNormal(3, 0.5)"]. *)
  support : support;
  pdf : float -> float;  (** Density [f(t)]; [0.] outside the support. *)
  cdf : float -> float;  (** CDF [F(t) = P(X <= t)]. *)
  quantile : float -> float;
      (** Quantile [Q(x) = inf (t | F t >= x)] for [x] in [[0, 1]]. *)
  mean : float;  (** [E(X)]. *)
  variance : float;  (** [Var(X)]. *)
  sample : Randomness.Rng.t -> float;  (** Draw one variate. *)
  conditional_mean : float -> float;
      (** [conditional_mean tau = E(X | X > tau)] — the Appendix B
          closed forms, used by the MEAN-BY-MEAN heuristic. For
          [tau <= lower t] this equals [mean]. *)
}

val lower : t -> float
(** [lower d] is the infimum of the support. *)

val upper : t -> float
(** [upper d] is the supremum of the support ([infinity] when
    unbounded). *)

val is_bounded : t -> bool
(** [is_bounded d] is [true] iff the support is a finite interval. *)

val sf : t -> float -> float
(** [sf d t] is the survival function [P(X >= t) = 1 - F(t)] (the two
    coincide for the continuous distributions used here). Clamped to
    [[0, 1]]. *)

val sf_of_cdf : float -> float
(** [sf_of_cdf c] is the survival probability {!sf} reports when the
    CDF is [c]: [sf d t = sf_of_cdf (d.cdf t)] bit for bit. Lets a
    caller that already holds [d.cdf t] skip a second CDF call. *)

val std : t -> float
(** [std d] is [sqrt (variance d)]. *)

val samples : t -> Randomness.Rng.t -> int -> float array
(** [samples d rng n] draws [n] independent variates. *)

val scale : float -> t -> t
(** [scale c d] is the distribution of [c * X] for [c > 0] — all
    fields transform in closed form ([pdf t = f(t/c)/c],
    [quantile p = c Q(p)], ...). Used for unit conversions and for
    runtime laws of moldable jobs ([work / speedup]).
    @raise Invalid_argument if [c <= 0.] or not finite. *)

(* stochlint: allow UNUSED_EXPORT — test_distributions checks every closed-form conditional mean against it *)
val numeric_conditional_mean : t -> float -> float
(** [numeric_conditional_mean d tau] evaluates [E(X | X > tau)] by
    quadrature over the density — a slow reference implementation used
    to validate each distribution's closed form and as the default for
    distributions with no closed form. *)

(* stochlint: allow UNUSED_EXPORT — test_distributions checks every closed-form mean against it *)
val numeric_mean : t -> float
(** [numeric_mean d] integrates [t * f(t)] over the support; reference
    implementation for tests. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt d] prints a one-line summary (name, support, mean, std). *)
