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
  max_seconds : float;
      (** Time guard over the whole solve, read from the [clock] given
          to {!solve}; the t1 scan reads it once per 64 candidates. *)
}

val default_budget : budget
(** Paper-scale grids ([5000]/[1000]/[1000]) under [2e6] evaluations
    and [60] seconds. *)

val quick_budget : budget
(** Reduced grids ([300]/[200]/[200]) under [2e5] evaluations and [5]
    seconds — for fuzzing, smoke tests and interactive use. *)

val override :
  ?m:int ->
  ?n:int ->
  ?disc_n:int ->
  ?max_seconds:float ->
  ?max_evaluations:int ->
  budget ->
  budget
(** [override base] is [base] with each given field replaced: [m] sets
    [bf_candidates], [n] [mc_samples], [disc_n] [dp_points]. Every
    front end (CLI flags, serve requests and deadlines, experiment
    configs) derives its budget through this one function; an absent
    argument keeps the base's field. *)

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
  elapsed : float;
      (** Seconds the whole solve took on its [clock] (process CPU
          seconds under the default {!Stochobs.Clock.cpu}). *)
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
    [exact] (default [true]) makes the brute-force tier rank
    candidates with the deterministic Eq. (4) series, so the chosen
    t1 is the grid candidate of least true cost and [cost] is that
    candidate's cost; [~exact:false] ranks them instead by the paper's
    Monte-Carlo average over [budget.mc_samples] draws (Eq. (13)),
    the BRUTE-FORCE of Table 2 and the serve protocol's default, and
    [seed] (default [42]) drives those draws. Either way [cost] and
    [normalized] are {!Stochastic_core.Expected_cost.exact} of the
    returned sequence. Never raises; never hangs (the wall-clock guard is
    read before the first t1 candidate and then before every 64th, the
    evaluation budget is charged candidate by candidate, and every
    stage is iteration-bounded). *)

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

(* stochlint: allow UNUSED_EXPORT — test_spot's rejection cases go through it *)
val spot_regime :
  ?recovery:Stochastic_core.Spot_cost.recovery ->
  price_ratio:float ->
  revocation_rate:float ->
  unit ->
  (Stochastic_core.Spot_cost.regime, error) result
(** {!Stochastic_core.Spot_cost.validate_regime} in the solver's
    taxonomy: the field it rejects ([price_ratio], [revocation_rate] or
    a {!Stochastic_core.Attempt.validate} recovery field) becomes an
    [Invalid_parameter] of that name. *)

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
    [spot_slots]/[savings] attributes and [spot.states], the
    evaluator states the assignment filled
    ({!Stochastic_core.Spot_plan.assignment}), and bumps the
    [robust.solver.spot.*] counters ([all_on_demand] counts solves
    that degraded to zero spot reservations). Never raises. *)
