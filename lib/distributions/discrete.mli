(** Finite discrete distributions [(v_i, f_i), i = 1..n].

    The output of the truncation/discretization schemes of Sect. 4.2.1
    and the input of the dynamic program of Theorem 5. Values are kept
    sorted strictly increasing; probabilities are positive but are
    {e not} required to sum to 1 — after truncating an unbounded
    distribution at quantile [1 - eps], the total mass is [1 - eps]
    (the paper makes the same observation). The DP renormalises
    internally. *)

type t = private {
  values : float array;  (** Strictly increasing support points. *)
  probs : float array;  (** Matching positive probabilities. *)
}

val make : (float * float) array -> t
(** [make pairs] builds a discrete distribution from (value,
    probability) pairs: sorts by value, merges duplicate values by
    adding their probabilities, and drops pairs with zero probability.
    Pairs already strictly increasing in value (what [Discretize]
    emits) take one O(n) pass straight into float arrays; any other
    input is first sorted by value with [Array.sort], O(n log n), and
    duplicate masses are added in the order that sort leaves them.
    @raise Invalid_argument if no pair remains, if any probability is
    negative, or if the total mass exceeds [1 + 1e-9]. *)

val normalize : t -> t
(** [normalize d] rescales the probabilities to sum to exactly 1. *)

