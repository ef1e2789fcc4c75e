(** Online operation: learning the distribution while scheduling.

    The paper assumes the execution-time law is known up front; a
    deployed cost tool starts with no model, schedules the first jobs
    with a crude rule, and refines its distribution estimate as
    completed jobs reveal their durations (every completed job's exact
    duration becomes known, since the final successful reservation
    observes it). This module simulates that loop:

    - with fewer than [warmup] observations, jobs are scheduled by
      doubling from the running mean (a model-free rule);
    - from [warmup] on, a LogNormal is refitted every [refit_every]
      completions and the configured strategy is recomputed against
      the current fit.

    The trajectory of per-job normalized costs quantifies how quickly
    online operation approaches the known-distribution optimum —
    complementing the static misspecification ablation
    ([Experiments.Robustness]). *)

type config = {
  warmup : int;  (** Jobs scheduled by the model-free rule. *)
  refit_every : int;  (** Completions between refits. *)
  strategy : Stochastic_core.Strategy.t;  (** Strategy used once fitted. *)
}

type trajectory = {
  costs : float array;  (** Per-job cost, in arrival order. *)
  normalized_prefix_mean : float array;
      (** Running mean cost over the first [i+1] jobs, normalized by
          the true omniscient cost. *)
  refits : int;  (** How many times the model was refitted. *)
}

val run :
  ?config:config ->
  jobs:int ->
  Stochastic_core.Cost_model.t ->
  Distributions.Dist.t ->
  Randomness.Rng.t ->
  trajectory
(** [run ~jobs m truth rng] simulates [jobs] arrivals from the (hidden)
    [truth] distribution.
    @raise Invalid_argument if [jobs <= 0]. *)

val final_normalized : trajectory -> float
(** Mean normalized cost over the last quarter of the trajectory —
    the steady-state performance after learning. *)
