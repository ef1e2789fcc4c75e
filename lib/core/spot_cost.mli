(** Two-tier (spot / on-demand) revocation-aware reservation cost.

    Extends the Eq. (1) cost model to preemptible capacity: every
    reservation in a plan carries a {!tier}. On-demand reservations
    behave exactly as in the base model (price multiplier [1], never
    revoked). Spot reservations pay only [price_ratio < 1] per reserved
    hour but can be revoked mid-reservation by a memoryless revocation
    process with rate [revocation_rate] (mean time between revocations
    [1 / revocation_rate]); a revocation destroys the work of the
    current attempt except for what the {!recovery} discipline has made
    durable.

    The {!recovery} discipline and its per-attempt geometry (restore,
    snapshot writes, what survives an interruption) are {!Attempt}'s,
    the kernel the cluster simulator's node-failure recovery shares:
    under [Restart] every attempt starts from scratch (the base paper's
    semantics); under [Snapshot] progress is durable in whole periods,
    so a revocation loses less than one period of work (plus the
    in-flight snapshot write).

    Billing is pay-for-use on revocation: a reservation that is revoked
    after [s < t_k] hours is billed [price * alpha * s + beta * s +
    gamma] (the provider only charges for the time actually held),
    while a reservation that runs to completion or expires is billed
    for its full length [t_k] as in Eq. (1).

    The analytic evaluator {!expected_cost} conditions on the job size
    and solves the recovery recursion exactly (closed-form exponential
    revocation windows): one chain of states per size under [Restart],
    one table per offset of the snapshot lattice under [Snapshot];
    {!Scheduler.Spot_sim} validates it against seeded trace-driven
    simulation. In the degenerate regime [price_ratio = 1,
    revocation_rate = 0, Restart] the evaluator delegates to
    {!Expected_cost.exact} and reproduces Eq. (1) bit-for-bit. *)

type tier = On_demand | Spot

val tier_name : tier -> string
(** ["on-demand"] or ["spot"]. *)

type recovery = Attempt.recovery =
  | Restart  (** Failed attempts restart from scratch (base model). *)
  | Snapshot of {
      period : float;  (** Useful-work hours between snapshots. *)
      snapshot_cost : float;  (** Hours to write one snapshot. *)
      restore_cost : float;  (** Hours to resume from a snapshot. *)
    }
(** {!Attempt.recovery}, re-exported so plans and regimes can be built
    from this module alone. *)

type regime = {
  price_ratio : float;  (** Spot price as a fraction of on-demand, in (0, 1]. *)
  revocation_rate : float;  (** Revocations per hour on spot capacity, >= 0. *)
  recovery : recovery;
}

val validate_regime : regime -> (regime, string * string) result
(** [Ok r], or [Error (field, detail)] for the first bad field:
    ["price_ratio"] unless finite in [(0, 1]], ["revocation_rate"]
    unless finite and [>= 0], then whatever {!Attempt.validate} rejects
    in [recovery]. *)

val make_regime :
  ?recovery:recovery -> price_ratio:float -> revocation_rate:float -> unit -> regime
(** [make_regime ~price_ratio ~revocation_rate ()] builds a regime
    ([recovery] defaults to {!Restart}) that {!validate_regime} accepts.
    @raise Invalid_argument naming the field {!validate_regime}
    rejects. *)

type plan = private {
  lengths : float array;
      (** Reservation lengths. Unlike base {!Sequence}s these need not
          be increasing: with snapshot recovery, progress survives an
          expired reservation, so flat "chunked" plans (the same spot
          reservation repeated until the job is done) are natural and
          often optimal under revocation. *)
  tiers : tier array;  (** Tier of each reservation; same length. *)
}

val make_plan : lengths:float array -> tiers:tier array -> plan
(** @raise Invalid_argument if the arrays differ in length, are empty,
    or any length is non-finite or non-positive. *)

val strictly_increasing : plan -> bool
(** Whether the lengths form a valid base reservation sequence. *)

val uniform_plan : tier -> float array -> plan
(** [uniform_plan tier lengths] assigns every reservation to [tier]. *)

val spot_slots : plan -> int
(** Number of reservations on the spot tier. *)

val slot : plan -> int -> float * tier
(** [slot plan k] is the [k]-th reservation. Indices past the plan
    extend it by doubling the last length on the on-demand tier, so
    every walk over a plan terminates (an on-demand reservation at
    least as long as the remaining work always finishes the job).
    @raise Invalid_argument if [k < 0]. *)

(* stochlint: allow UNUSED_EXPORT — test_spot's oracles (spot_oracle, spot_flat_oracle) score strictly increasing plans through it *)
val to_sequence : plan -> Sequence.t
(** The tier-less reservation sequence: plan lengths followed by the
    same doubling extension as {!slot} — suitable for
    {!Expected_cost.exact}. *)

type outcome = {
  billed : float;  (** Cost charged for this reservation. *)
  progress : float;  (** Durable progress after the reservation. *)
  finished : bool;  (** The job completed within this reservation. *)
  revoked : bool;  (** The reservation was revoked before completing. *)
}

val slot_outcome :
  regime ->
  Cost_model.t ->
  tier:tier ->
  length:float ->
  progress:float ->
  total:float ->
  revocation:float ->
  outcome
(** [slot_outcome regime m ~tier ~length ~progress ~total ~revocation]
    is the deterministic account of one reservation attempt: the job
    has [total] hours of work, of which [progress] hours are already
    durable, and (for spot reservations) the capacity is revoked
    [revocation] hours into the attempt ([infinity] = no revocation;
    on-demand attempts ignore [revocation]). It is {!Attempt.close}
    with the revocation as the interrupt, plus billing. The analytic
    evaluator walks the same {!Attempt} geometry kernels and the
    trace-driven simulator calls this function, so the two can only
    disagree on revocation-time {e distribution}, never on per-attempt
    accounting.
    @raise Invalid_argument if [progress < 0], [total <= progress],
    [length <= 0], or [revocation] is negative or NaN. *)

val expected_cost :
  ?disc_n:int -> ?eps:float -> regime -> Cost_model.t -> Distributions.Dist.t -> plan -> float
(** [expected_cost regime m d plan] is the analytic expected cost of
    running a [d]-distributed job under [plan], conditioned on the job
    size being at most [b], its quantile at [1 - eps] (default [1e-9]).
    The size law is discretized, and each size's attempt recursion is
    solved exactly with closed-form exponential revocation windows.
    [disc_n] (default [2000]) sets the resolution:
    - under [Restart], the sizes are the [disc_n] midpoints of an
      equal-probability grid, each of weight [1 / disc_n]; a size's
      states form one chain over the slots. The costs are bit-identical
      to the plain (slot, snapshots) recursion, which the tests keep as
      an oracle;
    - under [Snapshot], the sizes lie on the snapshot lattice
      [n period + f]. The lattice ends at [tau], the lower edge of the
      midpoint grid's last cell (mass [1 / disc_n]), and the mass above
      [tau] sits at its conditional mean. A period is cut into a
      uniform sub-grid, fine enough that no cell holds much more than
      [1 / disc_n] of the mass, and at every size where an attempt
      stops fitting its slot; each cell's midpoint is a node weighted
      by the cell's mass. One table over (slot, periods left, restore
      due) per offset [f] serves every [n], at O(1) per state. Each
      node's cost agrees with the per-size recursion at its size to
      within 1e-10 relative, which the tests pin.
    Degenerate regimes (price ratio 1, no revocation) with strictly
    increasing lengths bypass the discretization and delegate to
    {!Expected_cost.exact} (bit-for-bit Eq. (1) equivalence). A plan
    whose 128 extension doublings cannot finish the longest size costs
    [infinity].
    @raise Invalid_argument if [disc_n <= 0] or [eps] is not in
    [(0, 1)]. *)

val evaluator :
  ?disc_n:int -> ?eps:float -> regime -> Cost_model.t -> Distributions.Dist.t ->
  (plan -> float)
(** [evaluator regime m d] precomputes the discretization once and
    returns a closure evaluating plans against it, as {!expected_cost}
    — use when scoring many candidate plans (tier assignment). *)

type scored = {
  cost : float;  (** {!expected_cost}. *)
  states : int;
      (** Recursion states filled: lattice states under [Snapshot],
          chain states summed over sizes under [Restart], [0] on the
          degenerate Eq. (1) path. Deterministic work count. *)
}

val scorer :
  ?disc_n:int -> ?eps:float -> regime -> Cost_model.t -> Distributions.Dist.t ->
  (plan -> scored)
(** {!evaluator}, also reporting the work each plan took. *)

type node = {
  size : float;  (** Job size in hours. *)
  weight : float;  (** Probability mass the node stands for. *)
  value : float;  (** The cost of a job of exactly [size] under the plan. *)
}

(* stochlint: allow UNUSED_EXPORT — test_spot pins the lattice nodes against Spot_flat_oracle *)
val nodes :
  ?disc_n:int -> ?eps:float -> regime -> Cost_model.t -> Distributions.Dist.t -> plan ->
  node array
(** The discretized cost function the general evaluator sums: the
    expected cost is the compensated sum of [weight *. value] over the
    nodes, in order (the degenerate Eq. (1) path aside). For inspecting
    and testing the discretization. *)
