(** Optimal reservation sequences for discrete distributions
    (Theorem 5).

    For [X ~ (v_i, f_i), i = 1..n] the problem is solved exactly by
    dynamic programming over suffixes: [E*_i], the optimal expected
    cost given [X >= v_i], satisfies

    {[ E*_i = min_(i <= j <= n)
         ( alpha v_j + gamma + sum_(k=i..j) f'_k beta v_k
           + (sum_(k=j+1..n) f'_k) (beta v_j + E*_(j+1)) ) ]}

    with the conditional probabilities [f'_k = f_k / sum_(l>=i) f_l].
    The implementation works with the unconditional weights
    [W_i = S_i E*_i] and suffix prefix-sums, without renormalisation.
    For fixed [j] the candidate is a line in the suffix mass [S_i],
    whose slope [alpha v_j + gamma] falls as [j] falls while [S_i]
    rises: a monotone convex-hull deque finds every arg-min in [O(n)]
    total time. Ties go to the smallest [j] and the winner's cost is
    evaluated by the candidate expression above, as in the [O(n^2)]
    scan over every [j]; the two agree bit for bit whenever they pick
    the same arg-min, which the tests check on the paper's solves and
    on random laws. The arg-min chain is recovered by backtracking. *)

type solution = {
  reservations : float array;
      (** The optimal reservation values, a subsequence of the support
          ending with [v_n]. *)
  expected_cost : float;
      (** [E*_1] under the normalized discrete law. *)
  candidates : int;
      (** Candidate costs evaluated: at most [3 n], against the
          [n (n + 1) / 2] of a scan over every [j]. *)
}

val solve : Cost_model.t -> Distributions.Discrete.t -> solution
(** [solve m d] computes the optimal sequence and its expected cost.
    The input's probabilities are normalised internally (the
    discretization of a truncated distribution sums to [1 - eps]). *)

val sequence_for :
  Cost_model.t ->
  Distributions.Dist.t ->
  Distributions.Discrete.t ->
  Sequence.t
(** [sequence_for m d discrete] solves the discrete instance and wraps
    the result as a reservation sequence for the {e continuous}
    distribution [d]: for unbounded support, the finite DP sequence is
    extended beyond the truncation point by doubling
    ({!Sequence.sanitize}), as prescribed at the end of Sect. 4.2.2. *)

(* stochlint: allow UNUSED_EXPORT — test_dp checks the DP's optimum against this direct evaluation *)
val expected_cost_brute : Cost_model.t -> Distributions.Discrete.t -> float array -> float
(** [expected_cost_brute m d reservations] evaluates the exact expected
    cost of an arbitrary reservation sequence on the normalized
    discrete law by direct summation — an [O(n k)] reference used by
    the tests to verify DP optimality against exhaustive search. The
    last reservation must cover [v_n].
    @raise Invalid_argument otherwise. *)
