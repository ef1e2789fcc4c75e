(** Finite mixtures of execution-time distributions.

    Real application traces are often multi-modal — a fast path and a
    slow path, short inputs and long inputs (the follow-up literature
    on this paper fits neuroscience applications with mixture laws).
    A mixture [sum_i w_i D_i] composes any distributions from this
    library: density, CDF, moments and the conditional expectation all
    reduce to weighted combinations of the components' closed forms
    (the conditional mean uses the components' partial expectations
    [cm_i(tau) * sf_i(tau)]), and the quantile function is obtained by
    bracketed root finding on the mixture CDF. *)

(* stochlint: allow UNUSED_EXPORT — test_recurrence_oracle, test_robust and test_fuzz_solvers build off-default mixtures *)
val make : (float * Dist.t) list -> Dist.t
(** [make components] builds the mixture of [(weight, distribution)]
    pairs. Weights must be positive; they are normalised to sum to 1.
    @raise Invalid_argument if the list is empty or any weight is not
    positive and finite. *)

val default : Dist.t
(** A bimodal LogNormal with a fast mode around 10 and a slow mode
    around 60 (weights 0.7 / 0.3). *)
