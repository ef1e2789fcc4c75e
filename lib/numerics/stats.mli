(** Descriptive statistics over samples.

    Hand-rolled (the repro note for this paper flags OCaml's thin
    statistics ecosystem): compensated means, Welford standard
    deviations, interpolated and nearest-rank sample quantiles and
    histograms. These back every Monte-Carlo estimate reported by the
    benchmark harness. *)

val mean : float array -> float
(** [mean xs] is the compensated arithmetic mean.
    @raise Invalid_argument on an empty array. *)

val std : ?ddof:int -> float array -> float
(** [std ?ddof xs] is the standard deviation with [ddof] delta degrees
    of freedom (default [1], the unbiased sample estimate), from
    Welford's online variance.
    @raise Invalid_argument if [Array.length xs <= ddof]. *)

val quantiles_sorted : float array -> float -> float
(** [quantiles_sorted xs p] is the [p]-quantile of a sample the caller
    guarantees is already sorted, [p] in [[0, 1]], by linear
    interpolation between order statistics (Hyndman–Fan type 7, the
    default of R and NumPy); no copy is made.
    @raise Invalid_argument on an empty array or [p] outside [[0,1]]. *)

val quantile_nearest_rank : float array -> float -> float
(** [quantile_nearest_rank xs p] is the nearest-rank [p]-quantile: the
    order statistic of rank [ceil (p * n)] (clamped to [[1, n]]), i.e.
    the smallest sample value with at least a [p] fraction of the
    sample at or below it. Unlike {!quantiles_sorted} it never
    interpolates, so the result is always an observed value — the right
    reading for reported tail metrics such as p95 stretch, where an
    interpolated value between two observations describes no job that
    actually ran.
    Sorts a copy of the input.
    @raise Invalid_argument on an empty array or [p] outside [[0,1]]. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] is the 1-based rank [ceil (p n)], clamped to
    [[1, n]], that {!quantile_nearest_rank} reads in a sorted sample of
    [n] values.
    @raise Invalid_argument if [n = 0] or [p] is outside [[0, 1]]. *)

val quantile_nearest_rank_sorted : float array -> float -> float
(** {!quantile_nearest_rank} on an already-sorted array; no copy. *)

val median : float array -> float
(** [median xs] is the type-7 [0.5]-quantile of [xs], sorting a copy. *)

type histogram = {
  bounds : float array;  (** [n+1] bin boundaries, increasing. *)
  counts : int array;  (** [n] occupancy counts. *)
}

val histogram : ?bins:int -> float array -> histogram
(** [histogram ?bins xs] builds an equal-width histogram over
    [[min xs, max xs]] with [bins] bins (default [20]). Values equal to
    the upper bound are placed in the last bin.
    @raise Invalid_argument on an empty array or [bins <= 0]. *)
