(** Result-typed, budgeted front-end over every STOCHASTIC solver.

    The raw solvers are fragile by construction: the Eq. (11)
    recurrence is only monotone on the optimal trajectory, the
    Theorem 2 bounds need a finite second moment, the Theorem 5 DP
    needs a usable quantile, and all of them assume a self-consistent
    distribution. This module wraps the whole solve path so that for
    {e any} input it either returns a provably sane sequence (finite,
    strictly increasing, covering the support, with finite expected
    cost) or a typed, actionable error — in bounded time.

    The {b fallback cascade} tries, in order:
    + {!Brute_force} — recurrence-driven grid search (Sect. 4.1),
      the paper's best performer;
    + {!Dp_equal_probability} — the Theorem 5 DP on an
      equal-probability discretization (Sect. 4.2), which needs no
      density and no moment bounds;
    + {!Mean_doubling} — the Sect. 4.3 heuristic, which needs only a
      finite positive mean.

    The diagnostics record which tier produced the answer and why each
    earlier tier was rejected. *)

type tier = Brute_force | Dp_equal_probability | Mean_doubling

val tier_name : tier -> string
(** ["recurrence-brute-force"], ["equal-probability-dp"],
    ["mean-doubling"]. *)

val all_tiers : tier list
(** The full cascade, in order. *)

type budget = {
  bf_candidates : int;  (** Brute-force [t1] grid size (paper: 5000). *)
  mc_samples : int;  (** Common-random-number evaluation samples. *)
  dp_points : int;  (** Discretization size for the DP tier. *)
  max_evaluations : int;
      (** Total candidate/sequence evaluations across all tiers. *)
  max_seconds : float;  (** Wall-clock guard over the whole solve. *)
}

val default_budget : budget
(** Paper-scale grids ([5000]/[1000]/[1000]) under [2e6] evaluations
    and [60] seconds. *)

val quick_budget : budget
(** Reduced grids ([300]/[200]/[200]) under [2e5] evaluations and [5]
    seconds — for fuzzing, smoke tests and interactive use. *)

type error =
  | Invalid_distribution of Dist_check.report
      (** Input validation found fatal inconsistencies; the report
          lists them. *)
  | Invalid_parameter of { name : string; detail : string }
      (** A solver parameter (budget field, tier list) is unusable. *)
  | Non_convergent of { stage : string; detail : string }
      (** A stage ran within budget but produced no usable sequence;
          [stage] names it (e.g. ["brute-force"], ["cascade"]). *)
  | Budget_exhausted of { stage : string; evaluations : int; elapsed : float }
      (** The evaluation or wall-clock budget ran out in [stage]
          before any tier produced an answer. *)

(** The failure taxonomy: every way a solve can fail, typed. *)

val error_to_string : error -> string
(** One-line rendering of the error (reports are summarised). *)

val pp_error : Format.formatter -> error -> unit
(** Multi-line rendering ([Invalid_distribution] expands the full
    validation report). *)

val exit_code : error -> int
(** Stable process exit code for the CLI: [4] invalid distribution,
    [5] non-convergent, [6] budget exhausted, [7] invalid parameter.
    ([0] success, [2] usage error and [3] strict-mode degradation are
    assigned by the CLI itself.) *)

type rejection = { tier : tier; reason : error }
(** Why a cascade tier was passed over. *)

type diagnostics = {
  chosen : tier;  (** The tier that produced the answer. *)
  rejected : rejection list;
      (** Earlier tiers and why they were rejected, in cascade order. *)
  validation : Dist_check.report option;
      (** The input self-check ([None] when validation was skipped). *)
  evaluations : int;  (** Candidate/sequence evaluations consumed. *)
  elapsed : float;  (** Wall-clock seconds for the whole solve. *)
}

type solution = {
  sequence : Stochastic_core.Sequence.t;
      (** The sanitized reservation sequence. *)
  head : float array;
      (** The materialised, vetted prefix: finite, strictly
          increasing, covering the support up to the [1 - 1e-9]
          quantile (or ending exactly at [b]). *)
  cost : float;  (** Exact (Eq. (4)) expected cost — finite. *)
  normalized : float;  (** [cost / E^o]. *)
  diagnostics : diagnostics;
}

val degraded : solution -> bool
(** [degraded s] is [true] when at least one cascade tier was rejected
    before the answer was found — i.e. the result did not come from
    the preferred solver. *)

val solve :
  ?obs:Stochobs.Trace.sink ->
  ?clock:Stochobs.Clock.t ->
  ?budget:budget ->
  ?tiers:tier list ->
  ?validate:bool ->
  ?exact:bool ->
  ?seed:int ->
  Stochastic_core.Cost_model.t ->
  Distributions.Dist.t ->
  (solution, error) result
(** [solve m d] runs the validated, budgeted cascade. [obs] (default
    {!Stochobs.Trace.null}) receives a ["robust.solver.solve"] span
    with one ["robust.solver.tier"] child per executed tier, each
    closing with an [outcome] attribute ([accepted]/[rejected] plus
    the typed reason); [clock] (default {!Stochobs.Clock.cpu}) is the
    time source the [max_seconds] budget guard reads — inject the same
    {!Stochobs.Clock.fake} that drives a trace sink and the cascade's
    control flow (hence the trace's shape) no longer depends on
    machine load, which is what makes same-seed fake-clock runs
    bit-for-bit reproducible; [tiers] (default {!all_tiers}) restricts
    or reorders the cascade; [validate] (default [true]) runs
    {!Dist_check.run} first and refuses fatally inconsistent inputs;
    [exact] (default [false]) makes the brute-force tier rank
    candidates with the deterministic Eq. (4) series instead of
    Monte-Carlo; [seed] (default [42]) drives the Monte-Carlo
    evaluator. Never raises; never hangs (the wall-clock guard is
    checked between candidates, and every stage is
    iteration-bounded). *)

val pp_diagnostics : Format.formatter -> diagnostics -> unit
(** Human-readable cascade trace: validation summary, chosen tier,
    rejected tiers with reasons, budget consumption. *)

(** {2 Two-tier spot solving}

    Revocation-aware tier assignment on top of the cascade: solve the
    base sequence as usual, then choose on-demand vs spot per
    reservation under a {!Stochastic_core.Spot_cost.regime}. *)

type spot_solution = {
  base : solution;  (** The underlying cascade solution. *)
  regime : Stochastic_core.Spot_cost.regime;  (** The validated regime. *)
  plan : Stochastic_core.Spot_cost.plan;  (** Tier-annotated head. *)
  spot_cost : float;  (** Expected cost of [plan] under the regime. *)
  on_demand_cost : float;
      (** The all-on-demand plan under the same evaluator; [spot_cost
          <= on_demand_cost] always (graceful degradation). *)
  savings : float;  (** [1 - spot_cost / on_demand_cost]. *)
  assignment_evaluations : int;  (** Candidate plans scored. *)
}

val spot_regime :
  ?recovery:Stochastic_core.Spot_cost.recovery ->
  price_ratio:float ->
  revocation_rate:float ->
  unit ->
  (Stochastic_core.Spot_cost.regime, error) result
(** Typed regime validation: [price_ratio] outside [(0, 1]], a
    negative or non-finite [revocation_rate], or a [recovery] that
    {!Stochastic_core.Attempt.validate} rejects each return
    [Invalid_parameter] naming the field. *)

val solve_spot :
  ?obs:Stochobs.Trace.sink ->
  ?clock:Stochobs.Clock.t ->
  ?budget:budget ->
  ?tiers:tier list ->
  ?validate:bool ->
  ?exact:bool ->
  ?seed:int ->
  ?recovery:Stochastic_core.Spot_cost.recovery ->
  ?disc_n:int ->
  price_ratio:float ->
  revocation_rate:float ->
  Stochastic_core.Cost_model.t ->
  Distributions.Dist.t ->
  (spot_solution, error) result
(** [solve_spot ~price_ratio ~revocation_rate m d] validates the spot
    regime ({!spot_regime}), runs the base cascade ({!solve}, same
    optional arguments), then assigns tiers over the vetted head with
    {!Stochastic_core.Spot_plan.assign} ([disc_n], default [500],
    sizes the assignment evaluator's discretization; [recovery]
    defaults to [Restart]). Emits a ["robust.solver.spot"] span with
    [spot_slots]/[savings] attributes and bumps the
    [robust.solver.spot.*] counters ([all_on_demand] counts solves
    that degraded to zero spot reservations). Never raises. *)
