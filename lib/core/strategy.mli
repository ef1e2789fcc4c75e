(** A uniform interface over all reservation strategies.

    The evaluation harness (Table 2/4, Fig. 4) treats every heuristic
    as a named function from a cost model and a distribution to a
    reservation sequence. This module packages the seven strategies
    compared in the paper plus the exact exponential solver. *)

type t = {
  name : string;  (** Display name, matching the paper's tables. *)
  build : Cost_model.t -> Distributions.Dist.t -> Sequence.t;
      (** Produce the reservation sequence for a problem instance. *)
}

val mean_by_mean : t
val mean_stdev : t
val mean_doubling : t
val median_by_median : t

val quantile_ladder : q:float -> t
(** The generalised tail-halving heuristic
    ({!Heuristics.quantile_ladder}); [q = 0.5] is MEDIAN-BY-MEDIAN. *)

val brute_force : ?m:int -> ?n:int -> ?seed:int -> unit -> t
(** [brute_force ()] is BRUTE-FORCE with [m] grid points (default
    [5000]) evaluated over [n] Monte-Carlo samples (default [1000])
    from a private stream seeded with [seed] — deterministic across
    runs. *)

val dp_discretized : ?eps:float -> scheme:Discretize.scheme -> n:int -> unit -> t
(** [dp_discretized ~scheme ~n] discretizes with [scheme] and [n]
    samples ([eps] defaults to the paper's [1e-7]) and solves the
    discrete instance optimally by dynamic programming. *)

val equal_time : t
(** [dp_discretized ~scheme:Equal_time ~n:1000] — Table 2's
    "Equal-time" column. *)

val equal_probability : t
(** [dp_discretized ~scheme:Equal_probability ~n:1000] — Table 2's
    "Equal-prob." column. *)

val evaluate :
  ?n:int ->
  rng:Randomness.Rng.t ->
  Cost_model.t ->
  Distributions.Dist.t ->
  t ->
  float
(** [evaluate ~rng cost d s] builds the strategy's sequence and
    returns its normalized Monte-Carlo expected cost over [n] (default
    [1000]) fresh samples — the quantity tabulated throughout
    Sect. 5. *)

val evaluate_on :
  Cost_model.t ->
  Distributions.Dist.t ->
  sorted_samples:float array ->
  t ->
  float
(** [evaluate_on cost d ~sorted_samples s] is {!evaluate} over a
    caller-supplied sorted sample set — use one shared set per
    distribution (common random numbers) when comparing strategies, so
    that ranking differences reflect the sequences rather than the
    draws. *)
