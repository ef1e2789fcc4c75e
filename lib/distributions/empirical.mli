(** Empirical distributions interpolated from trace data.

    The NEUROHPC scenario of the paper is "based on interpolating
    traces from a real neuroscience application executed on an HPC
    platform". This module turns a raw array of observed execution
    times into a continuous {!Dist.t}: the quantile function is the
    linear interpolation of the order statistics (Hyndman–Fan type 7),
    the CDF is its piecewise-linear inverse, and the density is the
    resulting piecewise-constant derivative. Conditional expectations
    are computed exactly over the piecewise-linear CDF, so all
    heuristics — including the recurrence-based BRUTE-FORCE — run
    unchanged on trace data. *)

val make : ?name:string -> float array -> Dist.t
(** [make samples] builds the interpolated empirical distribution of
    the (not necessarily sorted) nonnegative [samples].
    @raise Invalid_argument if fewer than 2 distinct values, or any
    value is negative or not finite. *)

val ks_statistic : Dist.t -> float array -> float
(** [ks_statistic d samples] is the Kolmogorov–Smirnov statistic
    [sup_t |F_n(t) - F(t)|] between the sample and the model [d] —
    used to validate fitted distributions against traces (Fig. 1). *)
