(** Truncated Normal distribution [TruncatedNormal(mu, sigma^2, a)] —
    a Normal law conditioned on [X >= a] (one-sided lower truncation,
    support [[a, inf)]).

    The paper uses this (Table 1: [mu = 8, sigma^2 = 2, a = 0]) as a
    representative "bell-shaped but nonnegative" execution-time law,
    since a plain Normal would assign mass to negative times. The
    conditional expectation is the standard hazard-rate formula of
    Appendix B.4: [E(X | X > tau) = mu + sigma * lambda((tau - mu) /
    sigma)] with [lambda(z) = phi(z) / (1 - Phi(z))] the inverse Mills
    ratio (asymptotically [z + 1/z] deep in the tail). *)

val make : mu:float -> sigma:float -> lower:float -> Dist.t
(** [make ~mu ~sigma ~lower] is the Normal(mu, sigma^2) law conditioned
    on [X >= lower].
    @raise Invalid_argument if [sigma <= 0.] or [lower < 0.]. *)

val default : Dist.t
(** Table 1 instantiation: [TruncatedNormal(8.0, 2.0, 0.0)]
    (note [sigma^2 = 2]). *)

(* stochlint: allow UNUSED_EXPORT — test_distributions pins its tail asymptotics *)
val inverse_mills : float -> float
(** [inverse_mills z] is [phi(z) / (1 - Phi(z))], exposed for tests;
    switches to the asymptotic expansion for [z > 25]. *)
