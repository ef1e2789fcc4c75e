(** End-to-end job-flow simulator.

    Replays a reservation strategy against a stream of stochastic
    jobs, reproducing the paper's execution model operationally: each
    job is submitted with reservation [t1]; if it does not finish, it
    is resubmitted with [t2], and so on. Beyond the expected cost
    (which {!Stochastic_core.Expected_cost} already evaluates), the
    simulator reports the operational quantities a platform operator
    cares about — number of submissions per job, reserved-but-unused
    time, utilisation and cost quantiles. *)

type job_outcome = {
  duration : float;  (** The job's actual execution time. *)
  reservations_used : int;  (** [k]: how many submissions were paid. *)
  total_reserved : float;  (** [sum_(i<=k) t_i]. *)
  total_cost : float;  (** [C(k, t)] under the cost model. *)
  wasted : float;
      (** Reserved-but-unused time:
          [sum_(i<k) t_i + (t_k - duration)] — capacity paid for and
          not computing. *)
}

type report = {
  jobs : int;
  mean_cost : float;  (** Monte-Carlo mean of [total_cost]. *)
  normalized_cost : float;  (** [mean_cost / E^o]. *)
  mean_reservations : float;  (** Mean number of submissions. *)
  max_reservations : int;
  p95_cost : float;  (** 95th percentile of per-job cost. *)
  cvar95_cost : float;
      (** Conditional value-at-risk: mean cost of the worst 5% of
          jobs — the tail-risk metric a capacity planner budgets
          for. *)
  utilization : float;
      (** [sum duration / sum total_reserved] in [[0, 1]]. *)
  outcomes : job_outcome array;
}

(* stochlint: allow UNUSED_EXPORT — test_scheduler checks a lone job's engine outcome against it *)
val run_job :
  Stochastic_core.Cost_model.t ->
  Stochastic_core.Sequence.t ->
  duration:float ->
  job_outcome
(** [run_job m s ~duration] replays one job through the sequence.
    @raise Stochastic_core.Sequence.Not_covered if the sequence cannot
    cover the duration. *)

val run :
  ?jobs:int ->
  Stochastic_core.Cost_model.t ->
  Distributions.Dist.t ->
  Stochastic_core.Sequence.t ->
  Randomness.Rng.t ->
  report
(** [run m d s rng] simulates [jobs] (default [1000]) independent jobs
    drawn from [d]. *)

val pp_report : Format.formatter -> report -> unit
(** One-paragraph human-readable summary (omits [outcomes]). *)
