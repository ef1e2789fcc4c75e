(** Scalar root finding.

    Bracketing solvers. {!brent} inverts the mixture CDF in
    [Mixture.quantile]; {!bisection} is kept as its test oracle. *)

exception No_bracket of string
(** Raised when the supplied interval does not bracket a sign change. *)

(* stochlint: allow UNUSED_EXPORT — test_rootfind pins brent against it *)
val bisection : ?tol:float -> (float -> float) -> float -> float -> float
(** [bisection ?tol f a b] finds a root of [f] on [[a, b]] by
    bisection. [tol] (default [1e-12]) bounds the final interval width;
    the search stops after 200 halvings if [tol] is out of reach.
    @raise No_bracket if [f a] and [f b] have the same strict sign. *)

val brent : ?tol:float -> (float -> float) -> float -> float -> float
(** [brent ?tol f a b] finds a root with Brent's method (inverse
    quadratic interpolation + secant + bisection safeguards). Converges
    superlinearly on smooth functions while retaining the bisection
    guarantee. [tol] (default [1e-14]) bounds the final bracket width;
    the search stops after 200 iterations if it is out of reach.
    @raise No_bracket if [f a] and [f b] have the same strict sign. *)
