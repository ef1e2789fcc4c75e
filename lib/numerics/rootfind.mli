(** Scalar root finding.

    Bracketing solvers. {!brent} inverts the mixture CDF in
    [Mixture.quantile]; {!bisection} is kept as its test oracle. *)

exception No_bracket of string
(** Raised when the supplied interval does not bracket a sign change. *)

val bisection :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisection ?tol ?max_iter f a b] finds a root of [f] on [[a, b]] by
    bisection. [tol] (default [1e-12]) bounds the final interval width.
    @raise No_bracket if [f a] and [f b] have the same strict sign. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [brent ?tol ?max_iter f a b] finds a root with Brent's method
    (inverse quadratic interpolation + secant + bisection safeguards).
    Converges superlinearly on smooth functions while retaining the
    bisection guarantee.
    @raise No_bracket if [f a] and [f b] have the same strict sign. *)
