(** The optimal-sequence recurrence of Theorem 3 / Proposition 1.

    An optimal sequence for STOCHASTIC satisfies, for [i >= 2]
    (Eq. (11), with [t_0 = 0]):

    {[ t_i = (1 - F t_(i-2)) / f t_(i-1)
             + beta/alpha * ((1 - F t_(i-1)) / f t_(i-1) - t_(i-1))
             - gamma/alpha ]}

    so the whole sequence is determined by the first reservation [t1].
    Not every [t1] yields a valid (strictly increasing) sequence — the
    recurrence only guarantees monotonicity at the optimal [t1^o] —
    and BRUTE-FORCE discards candidates that break it
    (Sect. 5.2, Fig. 3). *)

type stop =
  | Unsupported_t1 of float
      (** [t1] is non-finite or outside the support [(a, b]]. *)
  | Density_underflow of { t : float; survival : float }
      (** [f t] underflowed to 0 (or was nan) while [survival = 1 - F t]
          mass was still uncovered — Eq. (11) divides by [f t_(i-1)],
          so the recurrence cannot be continued past [t]. Typical deep
          in the tail of heavy-tailed or near-point-mass laws. *)
  | Non_finite of { t_prev : float; next : float }
      (** Eq. (11) produced a non-finite [next] after [t_prev]. *)
  | Non_increasing of { t_prev : float; next : float }
      (** Eq. (11) produced [next <= t_prev]: the candidate [t1] is off
          every optimal trajectory (Sect. 5.2). *)
  | Too_long of int
      (** 1,000 elements did not reach the coverage target. *)

(** Why the recurrence stopped before covering the target mass. *)

val coverage : float
(** [coverage] ([1 - 1e-9]) is the CDF level at which {!generate}'s
    prefix ends. *)

(* stochlint: allow UNUSED_EXPORT — test_recurrence pins single Eq. (11) steps against hand-computed values *)
val next :
  Cost_model.t -> Distributions.Dist.t -> t_prev2:float -> t_prev1:float -> float
(** [next m d ~t_prev2 ~t_prev1] is Eq. (11) for [t_i] given
    [t_(i-2)] and [t_(i-1)]: [nan] where the density underflows at
    [t_prev1], and possibly non-finite or non-increasing when
    [t_prev1] is not on an optimal trajectory. *)

val score :
  Cost_model.t ->
  Distributions.Dist.t ->
  Expected_cost.scoring ->
  t1:float ->
  (float array * (float, exn) result, stop) result
(** [score m d scoring ~t1] is the one place Eq. (11) is stepped and
    Eq. (4) or (13) summed for a candidate [t1]. One walk calls [pdf]
    and [cdf] at most once per point and carries each survival forward
    ([Dist.sf_of_cdf]: the bits of [Dist.sf]). It returns {!generate}'s
    stop, or its prefix with the cost of {!sequence} — the raw
    recurrence, then its sanitized tail — scored in the same pass, bit
    for bit what [Expected_cost] computes on that sequence. The cost is
    [Error exn] when scoring raised [exn] (e.g. [Sequence.Not_covered]
    from a sample, or a [pdf] or [cdf] raising past the prefix); an
    exception before the verdict is known propagates. [score m d]
    evaluates the [Dist.sf d 0] every first step needs; a t1 scan
    applies it once and reuses it for each candidate. *)

val generate : Cost_model.t -> Distributions.Dist.t -> t1:float -> (float array, stop) result
(** [generate m d ~t1] is {!score}'s verdict alone: the strictly
    increasing prefix from [t1] up to the first [t_i] with
    [F t_i >= coverage], or up to the support's upper bound (then the
    last element). [Error stop] says why no such prefix exists. *)

val sequence :
  Cost_model.t -> Distributions.Dist.t -> t1:float -> Sequence.t
(** [sequence m d ~t1] is the infinite (or, for bounded support,
    [b]-terminated) sanitized reservation sequence driven by the
    recurrence: beyond the point where the raw recurrence stops
    increasing or its density underflows — which can only happen off
    the optimal trajectory or deep in the tail — it falls back to
    doubling (see {!Sequence.sanitize}). Built for the winning
    candidate only; candidates are scored by {!score}. *)
