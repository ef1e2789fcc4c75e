(** Spot-savings sweep: MTBF x price-ratio grid comparing checkpointed
    spot, pure on-demand, and naive (checkpoint-free) spot.

    The base reservation sequence is solved once with the robust
    cascade; each grid cell then prices three arms under the
    revocation-aware evaluator:
    - {b on-demand} — the best plan using no spot reservations (the
      cell's degradation floor: the tier-assignment search contains
      every such plan, so the checkpointed arm can never exceed it);
    - {b naive spot} — every head reservation on the spot tier with
      restart-from-scratch recovery (what a discount chaser without
      checkpoints gets);
    - {b checkpointed spot} — the plan chosen by
      {!Stochastic_core.Spot_plan.assign} under periodic-snapshot
      recovery.

    A subset of cells is re-validated by the seeded trace-driven
    simulator ({!Scheduler.Spot_sim}); the analytic cost must agree
    within 2%. The plain Eq. (1) all-on-demand cost (no checkpoints,
    the base solver's exact cost) is reported alongside as
    [od_plain]. *)

type cell = {
  mtbf : float;  (** Mean time between revocations (hours). *)
  price_ratio : float;  (** Spot price as a fraction of on-demand. *)
  on_demand : float;  (** All-on-demand arm (checkpoint discipline). *)
  naive_spot : float;  (** All-spot, restart recovery. *)
  checkpointed : float;  (** Tier-assigned, snapshot recovery. *)
  spot_slots : int;  (** Spot reservations in the chosen plan. *)
  slots : int;  (** Total reservations in the chosen plan. *)
  savings : float;  (** [1 - checkpointed / on_demand]. *)
}

type mc_check = {
  check_mtbf : float;
  check_ratio : float;
  analytic : float;
  simulated : float;
  sim_stderr : float;
  rel_err : float;  (** [|analytic - simulated| / analytic]. *)
}

type t = {
  dist_name : string;
  model : Stochastic_core.Cost_model.t;
  od_plain : float;  (** Base Eq. (1) cost: all-on-demand, no checkpoints. *)
  checkpoint_period : float;
  checkpoint_cost : float;
  restore_cost : float;
  head : float array;  (** The solved base head the plans annotate. *)
  cells : cell list;
  mc_checks : mc_check list;
}

val run :
  ?cfg:Config.t ->
  ?log:Stochobs.Log.t ->
  ?ratios:float list ->
  ?mc_reps:int ->
  ?assign_disc_n:int ->
  unit ->
  t
(** Revocation MTBFs [5], [20] and [100] hours. Defaults: [ratios =
    [0.2; 0.3; 0.5; 0.8]], [mc_reps = 20_000] trace replications per
    validated cell, [assign_disc_n = 400] discretization points for the
    assignment evaluator. The LogNormal(3, 0.5) law (mean about 22.8 h) under the
    neuro-HPC cost model; checkpoints every hour costing 0.05 h with a
    0.05 h restore. Three cells (cheapest ratio at every MTBF) are
    Monte-Carlo validated. [log] receives one line per cell. *)

val to_string : t -> string

val find_cell : t -> mtbf:float -> ratio:float -> cell option
(** The grid cell at [(mtbf, ratio)], if the sweep covered it. *)

val sanity : t -> (string * bool) list
(** Headline checks: the checkpointed arm never exceeds the on-demand
    arm in any cell (by construction of the assignment search); at
    price ratio 0.3 / MTBF 20 h it also beats the plain Eq. (1)
    baseline strictly; hostile cells assign no more spot than generous
    ones; every Monte-Carlo validation is within 2%. *)
