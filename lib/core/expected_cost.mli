(** Expected cost of a reservation sequence: the {e exact} series of
    Theorem 1 (Eq. (4)), the {e Monte-Carlo} estimator of Eq. (13) used
    by the paper's experiments, and the omniscient baseline used for
    normalisation throughout Sect. 5.

    Both sums are one incremental {!scorer}, fed one reservation at a
    time: by {!exact} and {!mean_cost_presampled} from a [Sequence.t],
    by {!Recurrence.score} from its single Eq. (11) walk — same terms,
    same Kahan order. *)

val omniscient : Cost_model.t -> Distributions.Dist.t -> float
(** [omniscient m d] is [E^o = (alpha + beta) E(X) + gamma]: the
    expected cost of a scheduler that knows each job's duration and
    reserves exactly that. *)

type sample
(** A sample sorted in nondecreasing order with its compensated prefix
    sums. *)

type scoring =
  | Series  (** The Eq. (4) series. *)
  | Sorted_sample of sample  (** The Eq. (13) mean over a sample. *)

val sample : float array -> scoring
(** [sample xs] sorts [xs] in place with {!Numerics.Stats.sort} (the
    stdlib's stable merge sort under [Float.compare], bit for bit,
    without boxing an element) and builds its prefix sums. *)

val first_reservation_bound :
  scoring -> Cost_model.t -> Distributions.Dist.t -> float -> float
(** [first_reservation_bound scoring m d t1] is
    [alpha t1 + gamma + beta mean], with [mean] the law's [E(X)] under
    [Series] and the sample mean under [Sorted_sample]. Eq. (4) charges
    every sequence its whole first reservation, and Eq. (13) charges it
    to every sample, so each sample costs at least
    [alpha t1 + gamma + beta x]: any sequence whose first reservation
    is at least [t1] scores at least this bound, up to the rounding of
    the compensated sums (DESIGN.md 3.4). [neg_infinity] when [mean]
    is not finite and nonnegative, or a sample is negative. *)

type scorer

val scorer : scoring -> Cost_model.t -> Distributions.Dist.t -> scorer
(** An empty sum. @raise Invalid_argument on an empty sample. *)

val feed : scorer -> float -> sf:float -> bool
(** [feed sc t ~sf] adds reservation [t], whose survival [Dist.sf d t]
    is [sf] (read by the series only). [false] once later reservations
    cannot change the score: the survival fell below [1e-16] — the
    neglected remainder is then below [1e-16 * A2] for this library's
    sanitized sequences — or 100,001 terms were added; or every sample
    is covered.

    The sample is scored by segments: the samples [x <= t] that earlier
    reservations left uncovered (found by galloping search from the
    first uncovered one; a NaN [t] covers none) add one term,
    [count (P + alpha t + gamma) + beta (sum of x)], the sum read off
    the prefix sums. A reservation costs [O(log |samples|)].
    @raise Sequence.Not_covered past {!Sequence.max_steps} samples
    steps. *)

val feed_seq : scorer -> Sequence.t -> unit
(** [feed_seq sc s] feeds [s] until {!feed} says [false] or [s] ends. *)

val total : scorer -> float
(** @raise Sequence.Not_covered if a sample is still uncovered. *)

val exact : Cost_model.t -> Distributions.Dist.t -> Sequence.t -> float
(** [exact m d s] evaluates Eq. (4):
    [beta E(X) + sum_(i>=0) (alpha t_(i+1) + beta t_i + gamma)
    P(X >= t_i)], truncated as {!feed} says. *)

val monte_carlo :
  Cost_model.t ->
  Distributions.Dist.t ->
  Randomness.Rng.t ->
  n:int ->
  Sequence.t ->
  float
(** [monte_carlo m d rng ~n s] draws [n] job durations from [d] and
    averages [C(k, t)] over them (Eq. (13); the paper uses
    [n = 1000]). *)

val mean_cost_presampled : Cost_model.t -> sorted_samples:float array -> Sequence.t -> float
(** [mean_cost_presampled m ~sorted_samples s] is the Eq. (13) mean
    over a caller-supplied sorted sample — common random numbers for
    comparing sequences — scored as {!feed} says, after an
    [O(|samples|)] pass that builds the prefix sums.
    @raise Sequence.Not_covered if [s] ends (or {!Sequence.max_steps}
    steps pass) before covering every sample.
    @raise Invalid_argument if [sorted_samples] is empty. *)

val normalized :
  Cost_model.t -> Distributions.Dist.t -> cost:float -> float
(** [normalized m d ~cost] is [cost / omniscient m d]: always [>= 1],
    smaller is better (Sect. 5.1). *)
