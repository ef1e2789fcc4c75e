(** Extension to convex reservation-cost functions (Appendix C).

    The affine cost [alpha t1 + beta min(t1, t) + gamma] generalises to
    [G(t1) + beta min(t1, t)] for any smooth convex increasing [G].
    Theorem 14 gives the optimality condition and Proposition 3 the
    recurrence

    {[ t_i = G^-1 ( G'(t_(i-1)) (1 - F t_(i-2)) / f t_(i-1)
                    + beta ((1 - F t_(i-1)) / f t_(i-1) - t_(i-1)) ) ]}

    so the brute-force machinery carries over unchanged. This module
    mirrors {!Recurrence}, {!Expected_cost} and {!Brute_force} for such
    costs. *)

type g = {
  g : float -> float;  (** The convex reservation cost [G]. *)
  g' : float -> float;  (** Its derivative. *)
  g_inv : float -> float;  (** Its inverse on the range of [G]. *)
  beta : float;  (** Usage-time coefficient [beta >= 0]. *)
}

val of_affine : Cost_model.t -> g
(** [of_affine m] embeds the affine model
    [G(x) = alpha x + gamma]; with it every function of this module
    agrees with its affine counterpart (tested). *)

val quadratic : a:float -> b:float -> c:float -> beta:float -> g
(** [quadratic ~a ~b ~c ~beta] is [G(x) = a x^2 + b x + c] restricted
    to [x >= 0] — e.g. congestion-priced reservations.
    @raise Invalid_argument unless [a > 0.], [b >= 0.] and
    [beta >= 0.]. *)

(* stochlint: allow UNUSED_EXPORT — test_convex_cost pins it against Recurrence.next on affine costs *)
val next :
  g -> Distributions.Dist.t -> t_prev2:float -> t_prev1:float -> float
(** Proposition 3's recurrence step (Eq. (37)). *)

val sequence : g -> Distributions.Dist.t -> t1:float -> Sequence.t
(** [sequence g d ~t1] is the sanitized recurrence sequence from
    [t1]. *)

(* stochlint: allow UNUSED_EXPORT — test_convex_cost pins it against Expected_cost.exact on affine costs *)
val expected_cost : g -> Distributions.Dist.t -> Sequence.t -> float
(** [expected_cost g d s] evaluates
    [beta E(X) + sum_(i>=0) (G(t_(i+1)) + beta t_i) P(X >= t_i)],
    truncated once the tail mass [P(X >= t_i)] drops below [1e-16] or
    after [100_000] terms. *)

val search :
  ?m:int -> g -> Distributions.Dist.t -> upper:float -> float * float
(** [search g d ~upper] grid-scans [t1] over [(lower d, upper]] with
    [m] (default [1000]) candidates and returns [(t1, expected_cost)]
    of the best valid candidate.
    @raise Invalid_argument if no candidate is valid. *)
