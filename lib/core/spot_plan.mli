(** Tier assignment and plan-shape search over a reservation sequence.

    Given a solved reservation head (the base solver's vetted prefix)
    and a spot {!Spot_cost.regime}, choose a revocation-aware plan:
    a tier per reservation, and — under snapshot recovery — possibly a
    different plan {e shape} entirely. The candidate families:

    - {b threshold tierings} of the head: spot for the first [i]
      reservations, on-demand after, [i = 0..K] (short early
      reservations risk little destroyed work);
    - {b chunked ladders}: the same reservation length repeated until
      the truncation quantile is covered in durable snapshots, on a
      small grid of chunk sizes around the revocation MTBF and the
      checkpoint stride, scored all-spot, all-on-demand and with
      spot-prefix cuts. The base head is optimal for Eq. (1)'s
      run-to-completion world where a failed reservation wastes all
      its work; once snapshots persist across reservations, flat spot
      chunks sized to survive between revocations dominate escalating
      lengths whenever the price discount outruns the checkpoint
      overhead;
    - {b greedy single-slot flips} from the best candidate (at most two
      passes, skipped for large ladders whose slots are
      interchangeable).

    Every candidate is scored with the {e same}
    {!Spot_cost.evaluator} closure, so comparisons carry no
    cross-candidate discretization bias, and the all-on-demand head is
    always in the candidate set: the result can never be worse than
    refusing spot entirely (graceful degradation under hostile regimes
    is by construction, not by luck). *)

type assignment = {
  plan : Spot_cost.plan;  (** The chosen plan. *)
  cost : float;  (** Its expected cost under the evaluator. *)
  on_demand_cost : float;
      (** The best plan using {e no} spot reservations (all-on-demand
          head or ladder) under the same evaluator —
          [cost <= on_demand_cost] always. *)
  all_spot_cost : float;  (** The naive all-spot head's cost. *)
  evaluated : int;  (** Candidate plans scored. *)
  states : int;
      (** Evaluator states filled, summed over the scored plans
          ({!Spot_cost.scored}): a deterministic work count. *)
}

val assign :
  ?disc_n:int ->
  ?eps:float ->
  Spot_cost.regime ->
  Cost_model.t ->
  Distributions.Dist.t ->
  float array ->
  assignment
(** [assign regime m d lengths] searches plans for a [d]-distributed
    job whose base reservation head is [lengths] (finite, strictly
    increasing). [disc_n] (default [500]) and [eps] (default [1e-8])
    size the shared evaluator's discretization; the greedy flips stop
    after [2] passes.
    @raise Invalid_argument on an empty [lengths] or non-positive
    entries (as {!Spot_cost.make_plan}) or bad discretization
    parameters. *)

val chunk_grid : Spot_cost.regime -> upper:float -> float list
(** [chunk_grid regime ~upper] is the sorted chunk sizes [assign]
    tries for its ladders: around the checkpoint stride and the
    revocation MTBF, within [(0, 4 upper]]. Empty under {!Spot_cost.Restart}. *)

val ladder_lengths : Spot_cost.regime -> upper:float -> float -> float array option
(** [ladder_lengths regime ~upper chunk] repeats [chunk] until the
    durable progress it banks covers [upper] (at most 1024 rungs);
    [None] under {!Spot_cost.Restart} or when [chunk] is too short to
    bank a whole snapshot period. *)
