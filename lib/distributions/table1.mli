(** The nine evaluation distributions of the paper's Table 1, with the
    exact parameter instantiations used throughout Sect. 5. *)

val infinite_support : (string * Dist.t) list
(** Exponential(1), Weibull(1, 0.5), Gamma(2, 2), LogNormal(3, 0.5),
    TruncatedNormal(8, 2, 0), Pareto(1.5, 3) — in the paper's order. *)

val all : (string * Dist.t) list
(** All nine, infinite-support family first (Table 1 / Table 2 row
    order). *)

