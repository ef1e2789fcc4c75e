(** Descriptive statistics over samples.

    Hand-rolled (the repro note for this paper flags OCaml's thin
    statistics ecosystem): compensated means, Welford variance,
    interpolated sample quantiles, histograms, and an online
    accumulator. These back every Monte-Carlo estimate reported by the
    benchmark harness. *)

val mean : float array -> float
(** [mean xs] is the compensated arithmetic mean.
    @raise Invalid_argument on an empty array. *)

val variance : ?ddof:int -> float array -> float
(** [variance ?ddof xs] is the variance with [ddof] delta degrees of
    freedom (default [1], the unbiased sample variance), computed with
    Welford's online algorithm.
    @raise Invalid_argument if [Array.length xs <= ddof]. *)

val std : ?ddof:int -> float array -> float
(** [std ?ddof xs] is [sqrt (variance ?ddof xs)]. *)

val quantile : float array -> float -> float
(** [quantile xs p] is the [p]-quantile of the sample, [p] in
    [[0, 1]], using linear interpolation between order statistics
    (Hyndman–Fan type 7, the default of R and NumPy). Sorts a copy of
    the input.
    @raise Invalid_argument on an empty array or [p] outside [[0,1]]. *)

val quantiles_sorted : float array -> float -> float
(** [quantiles_sorted xs p] is {!quantile} on an array the caller
    guarantees is already sorted; no copy is made. *)

val quantile_nearest_rank : float array -> float -> float
(** [quantile_nearest_rank xs p] is the nearest-rank [p]-quantile: the
    order statistic of rank [ceil (p * n)] (clamped to [[1, n]]), i.e.
    the smallest sample value with at least a [p] fraction of the
    sample at or below it. Unlike {!quantile} it never interpolates,
    so the result is always an observed value — the right reading for
    reported tail metrics such as p95 stretch, where an interpolated
    value between two observations describes no job that actually ran.
    Sorts a copy of the input.
    @raise Invalid_argument on an empty array or [p] outside [[0,1]]. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] is the 1-based rank [ceil (p n)], clamped to
    [[1, n]], that {!quantile_nearest_rank} reads in a sorted sample of
    [n] values.
    @raise Invalid_argument if [n = 0] or [p] is outside [[0, 1]]. *)

val quantile_nearest_rank_sorted : float array -> float -> float
(** {!quantile_nearest_rank} on an already-sorted array; no copy. *)

val quantile_nearest_rank_upper : ?len:int -> float array -> float -> float
(** [quantile_nearest_rank_upper ?len xs p] is {!quantile_nearest_rank}
    of the first [len] values of [xs] (default: all of them), without a
    copy or a sort: one pass keeps the [len - r + 1] largest values,
    [r] the nearest rank. That is cheap for upper quantiles of short
    samples (at [p = 0.99] and [len <= 199] it keeps at most two). The
    value is the sort's bit for bit unless the sample mixes [0.0] with
    [-0.0] or NaNs of different payloads, which compare equal.
    @raise Invalid_argument on [len] outside [[1, Array.length xs]] or
    [p] outside [[0,1]]. *)

val median : float array -> float
(** [median xs] is [quantile xs 0.5]. *)

val min_max : float array -> float * float
(** [min_max xs] is the pair of smallest and largest elements.
    @raise Invalid_argument on an empty array. *)

type histogram = {
  bounds : float array;  (** [n+1] bin boundaries, increasing. *)
  counts : int array;  (** [n] occupancy counts. *)
}

val histogram : ?bins:int -> float array -> histogram
(** [histogram ?bins xs] builds an equal-width histogram over
    [[min xs, max xs]] with [bins] bins (default [20]). Values equal to
    the upper bound are placed in the last bin.
    @raise Invalid_argument on an empty array or [bins <= 0]. *)

(** Online mean/variance accumulator (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val push : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two samples. *)

  val std : t -> float

  val stderr : t -> float
  (** Standard error of the mean; [0.] with fewer than two samples. *)
end
