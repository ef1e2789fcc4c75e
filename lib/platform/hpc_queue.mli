(** HPC batch-queue wait-time model (Fig. 2, Sect. 5.3).

    On large HPC machines, the cost of a reservation is the time a job
    waits in the queue, which grows (roughly affinely) with the
    requested walltime, plus the time actually used. The paper fits an
    affine wait-time function to Intrepid scheduler logs [20] binned
    into 20 groups of similar requested runtimes, obtaining
    [wait ~ 0.95 * requested + 1.05 h] for the 409-processor class,
    and instantiates the STOCHASTIC cost model with
    [alpha = 0.95, beta = 1, gamma = 1.05].

    The original logs are not distributed with the paper, so this
    module {e simulates} them: a synthetic generator emits per-job
    (requested runtime, wait time) records with an affine ground truth
    plus heteroscedastic noise, and the fitting pipeline — group into
    bins, average each bin, OLS over the bin means, exactly as the
    paper describes — recovers the cost-model coefficients. *)

type job_record = {
  requested : float;  (** Requested walltime (hours). *)
  wait : float;  (** Observed queue wait (hours). *)
}

type log = job_record array

val synthetic_log :
  ?jobs:int ->
  ?alpha:float ->
  ?gamma:float ->
  ?noise:float ->
  Randomness.Rng.t ->
  log
(** [synthetic_log rng] generates a scheduler log of [jobs] (default
    [5000]) jobs with requested runtimes spread log-uniformly over
    [(0.25, 12)] hours (mimicking batch-queue request distributions)
    and waits
    [alpha * requested + gamma] (defaults [0.95] / [1.05]) perturbed by
    multiplicative LogNormal noise of coefficient of variation [noise]
    (default [0.35]), truncated at zero. *)

type binned = {
  centers : float array;  (** Mean requested runtime of each group. *)
  mean_waits : float array;  (** Mean wait of each group. *)
}

val bin_log : ?groups:int -> log -> binned
(** [bin_log log] clusters the jobs into [groups] (default [20],
    as in Fig. 2) equally-populated groups by requested runtime and
    averages each group — the blue points of Fig. 2.
    @raise Invalid_argument if there are fewer jobs than groups, or if
    any record has a non-positive/non-finite requested runtime or a
    negative/non-finite wait (a buggy trace would otherwise surface as
    NaN fit coefficients). *)

val fit : binned -> Numerics.Regression.fit
(** [fit b] fits the affine wait-time function through the group
    means — the green line of Fig. 2.
    @raise Invalid_argument if every bin centre is identical (all-equal
    requested runtimes identify no affine model). *)

val cost_model_of_fit : ?beta:float -> Numerics.Regression.fit -> Stochastic_core.Cost_model.t
(** [cost_model_of_fit f] instantiates the STOCHASTIC cost model from
    a wait-time fit: [alpha = slope], [gamma = intercept],
    [beta] defaulting to [1.] (the job pays its actual runtime).
    @raise Invalid_argument if the fit has non-positive slope or
    negative intercept. *)

val turnaround :
  Stochastic_core.Cost_model.t -> requested:float -> actual:float -> float
(** [turnaround m ~requested ~actual] is the expected turnaround
    contribution of one reservation: queue wait
    [alpha * requested + gamma] plus executed time
    [beta * min requested actual]. Identical to
    {!Stochastic_core.Cost_model.reservation_cost}; exposed under the
    domain name for clarity. *)
