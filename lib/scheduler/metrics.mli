(** Cluster-level metrics, failure accounting, and the measurement
    loop back into {!Platform.Hpc_queue}.

    The paper {e assumes} an affine wait-time model
    [wait ~ alpha * requested + gamma] fitted offline; this module
    {e measures} it: every attempt in a simulation contributes a
    [(requested, wait)] record, and the existing binning/OLS pipeline
    of {!Platform.Hpc_queue} recovers [(alpha, gamma)] from simulated
    contention, yielding a self-consistent {!Stochastic_core.Cost_model}.

    Under fault injection the summary additionally splits consumed
    node-time by kill cause: {e goodput} (attempts that completed
    their job, checkpoint overheads included), node-time lost to
    reservation timeouts, and node-time lost to node failures. *)

type job_metrics = {
  id : int;
  nodes : int;
  duration : float;
  attempts : int;  (** Submissions paid. *)
  failures : int;  (** Attempts killed by node failures. *)
  total_wait : float;  (** Queue wait summed over attempts. *)
  response : float;  (** Completion minus first arrival. *)
  stretch : float;  (** [response / duration], [>= 1]. *)
  cost : float;  (** Modeled cost [C(k, t)] under the cost model. *)
}

type summary = {
  jobs : int;  (** Submitted. *)
  completed : int;  (** Reached [Done]. *)
  abandoned : int;  (** Exhausted the failure-retry budget. *)
  nodes : int;
  policy : string;
  makespan : float;
  utilization : float;  (** Allocated node-time over [nodes * makespan]. *)
  mean_wait : float;
  mean_stretch : float;
  p95_stretch : float;
      (** Nearest-rank 95th percentile ({!Numerics.Stats.quantile_nearest_rank}):
          always a stretch some completed job actually had. *)
  max_stretch : float;
  mean_attempts : float;
  mean_cost : float;
  node_failures : int;  (** Node outages during the run. *)
  failure_kills : int;  (** Attempts killed by failures. *)
  timeout_kills : int;  (** Attempts killed by reservation expiry. *)
  goodput_node_time : float;  (** Node-time of completing attempts. *)
  failure_node_time : float;  (** Node-time burnt by failed attempts. *)
  timeout_node_time : float;  (** Node-time burnt by timeouts. *)
  per_job : job_metrics array;  (** Completed jobs only. *)
}

(* stochlint: allow UNUSED_EXPORT — test_scheduler checks a lone job's cost against Simulator.run_job *)
val job_cost : Stochastic_core.Cost_model.t -> Job.t -> float
(** Eq. (2) cost of a job's attempt history, each attempt billed by
    its reserved length, the time it ran and whether it succeeded. With a single reliable job in flight this equals
    [Platform.Simulator.run_job]'s [total_cost]. *)

val summarize : model:Stochastic_core.Cost_model.t -> Engine.result -> summary
(** Wait/stretch/cost means are over completed jobs; the node-time
    split counts every attempt, abandoned jobs included. *)

val goodput_fraction : summary -> float
(** Goodput over total consumed node-time ([1.] when nothing ran). *)

val wait_records : Engine.result -> Platform.Hpc_queue.log
(** One [(requested, wait)] record per attempt, the raw material of
    the Fig. 2 pipeline. *)

val measured_fit : ?groups:int -> Platform.Hpc_queue.log -> Numerics.Regression.fit
(** Bin into at most [groups] (default [20], reduced for small logs)
    equally-populated groups and fit the affine wait-time function.
    @raise Invalid_argument on fewer than 10 records or a degenerate
    log (see {!Platform.Hpc_queue.bin_log}). *)

val measured_cost_model :
  ?beta:float ->
  ?groups:int ->
  Engine.result ->
  Numerics.Regression.fit * Stochastic_core.Cost_model.t
(** Measure [(alpha, gamma)] from a simulation and instantiate the
    STOCHASTIC cost model ([beta] defaults to [1.]: jobs pay their
    runtime).
    @raise Invalid_argument if the measured slope is non-positive or
    the intercept negative (no usable affine contention signal). *)

val pp_summary : Format.formatter -> summary -> unit
