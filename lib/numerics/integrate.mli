(** Numerical quadrature.

    Adaptive Gauss–Kronrod (G7/K15) quadrature over finite intervals,
    plus semi-infinite integrals via the rational substitution
    [x = a + u/(1-u)]. Used to evaluate expected costs
    (Eq. (3) of the paper), conditional expectations of arbitrary
    distributions, and to cross-check the closed-form moments of
    [lib/distributions]. *)

val qk15 : (float -> float) -> float -> float -> float * float
(** [qk15 f a b] applies a single 15-point Kronrod rule (embedding the
    7-point Gauss rule) on [[a, b]] and returns
    [(integral, error_estimate)]. All nodes are interior, so [f] is
    never evaluated at the endpoints. *)

val gauss_kronrod :
  ?tol:float ->
  ?max_depth:int ->
  ?initial:int ->
  (float -> float) ->
  float ->
  float ->
  float
(** [gauss_kronrod ?tol ?max_depth ?initial f a b] integrates [f] over
    [[a, b]] by adaptive bisection driven by the K15 error estimate,
    starting from [initial] (default [1]) equal subintervals — raise
    it for sharply peaked integrands that could slip between the nodes
    of a single panel. Endpoints are never evaluated, which makes it
    safe for integrable endpoint singularities such as the Beta(2,2)
    density derivative.
    @raise Invalid_argument if [initial <= 0]. *)

val gauss_kronrod_moment :
  tol:float ->
  tol_moment:float ->
  max_depth:int ->
  (float -> float) ->
  float ->
  float ->
  float * float
(** [gauss_kronrod_moment ~tol ~tol_moment ~max_depth f a b] is
    [(gauss_kronrod ~tol ~max_depth f a b,
      gauss_kronrod ~tol:tol_moment ~max_depth (fun x -> x *. f x) a b)],
    bit for bit, with [f] called once per node: the two adaptive runs
    share their panels as far as both refine. *)

val to_infinity : ?tol:float -> (float -> float) -> float -> float
(** [to_infinity ?tol f a] computes [integral_a^inf f(x) dx] by mapping
    to [u] in [(0, 1)] with [x = a + u/(1-u)] and applying
    {!gauss_kronrod} (whose nodes avoid [u = 1]). Requires [f] to decay
    at infinity fast enough to be integrable. *)
