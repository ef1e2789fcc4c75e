(** Seeded trace-driven validation of the spot cost model.

    Replays {!Stochastic_core.Spot_cost} plans against concrete
    revocation traces drawn from {!Faults} (one independent stream per
    replication, exponential interarrivals at the regime's revocation
    rate) and concrete job sizes sampled from the distribution. Every
    attempt is accounted with the {e same}
    {!Stochastic_core.Spot_cost.slot_outcome} kernel the analytic
    evaluator integrates over, so simulation and analysis can only
    disagree about the revocation-time distribution — which is exactly
    what the Monte-Carlo acceptance check pins (analytic within 2% of
    simulated). *)

type result = {
  reps : int;  (** Replications simulated. *)
  mean_cost : float;  (** Sample mean of the per-replication cost. *)
  stderr : float;  (** Standard error of the mean. *)
  attempts : int;  (** Total reservation attempts across reps. *)
  revocations : int;  (** Attempts killed by a revocation. *)
  resumes : int;  (** Attempts started from a durable snapshot. *)
  incomplete : int;
      (** Replications aborted after plan length + 128 slots — always
          [0] for sane plans (the on-demand doubling extension finishes
          any job). *)
}

val run :
  ?obs:Stochobs.Trace.sink ->
  ?reps:int ->
  ?seed:int ->
  Stochastic_core.Spot_cost.regime ->
  Stochastic_core.Cost_model.t ->
  Distributions.Dist.t ->
  Stochastic_core.Spot_cost.plan ->
  result
(** [run regime m d plan] simulates [reps] (default [10_000])
    independent job executions under seeded revocation traces
    ([seed] default [42]; replication [i] uses fault stream node [i],
    so results are bit-for-bit reproducible for a fixed seed and
    independent of replication order). Each walk is bounded at plan
    length + 128 slots. Emits a
    ["scheduler.spot_sim.run"] span on [obs]; the counts of reps,
    attempts, revocations and resumes are in the {!result}.
    @raise Invalid_argument if [reps <= 0]. *)
