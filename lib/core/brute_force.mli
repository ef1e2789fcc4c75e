(** The BRUTE-FORCE heuristic (Sect. 4.1).

    Scans [m] candidate values of the first reservation [t1] on the
    search interval of {!Bounds.search_interval} — [(a, b]] for
    bounded support, [(a, A1]] otherwise — walks each candidate's
    recurrence (Eq. (11)) once with {!Recurrence.score}, which
    discards candidates whose recurrence is not strictly increasing
    and scores the survivors in the same pass, and returns the best.
    Eq. (4) charges every sequence its whole first reservation, so a
    candidate costs at least [alpha t1 + gamma + beta E(X)]
    ({!Expected_cost.first_reservation_bound}); the scan stops at the
    first grid point whose bound exceeds the best cost so far by more
    than {!margin}. Theorem 2's
    [A1] lies far above the optimum, so on heavy-tailed laws most of
    the grid is closed this way without a walk. The grid ascends and
    the incumbent only falls, so no closed point could have won: the
    winner is the full scan's, bit for bit.
    Following the paper, the default evaluator is the Monte-Carlo
    estimator over [n] common random samples ([m = 5000], [n = 1000]
    in the experiments); the exact Eq. (4) series is available as a
    deterministic alternative.

    {!scan} is the one t1 scan of the library: {!search} calls it
    unbudgeted and [Robust.Solver] calls it with a per-candidate
    budget charge. *)

type evaluator =
  | Monte_carlo of { rng : Randomness.Rng.t; n : int }
      (** Average cost over [n] samples drawn once and shared by all
          candidates (common random numbers). *)
  | Exact
      (** The Eq. (4) series — deterministic, slightly slower. *)

type result = {
  t1 : float;  (** Best first-reservation length found. *)
  cost : float;  (** Its (estimated) expected cost. *)
  normalized : float;  (** [cost / E^o]. *)
  sequence : Sequence.t;  (** The full sequence generated from [t1]. *)
  candidates : int;
      (** Grid points scanned, counting those the bound closed: [m]. *)
  valid : int;
      (** How many walked points gave a valid sequence with a finite
          cost. *)
}

val margin : float
(** [margin] ([1e-12]) is the relative slack by which a point's
    first-reservation bound must exceed the incumbent's cost before
    the scan stops there. A computed cost stays within about [18 u]
    ([u = 2^-53]) of the bound below it (DESIGN.md 3.4). *)

type scan = {
  best : (float * float) option;  (** First [(t1, cost)] of least finite cost. *)
  candidates : int;
      (** Grid points done: walked, or closed by the bound. [m] once
          the scan completes; less only when [charge] ended it. *)
  valid : int;  (** Walked points whose sequence is valid with a finite cost. *)
  underflow : int;
  non_increasing : int;
  non_finite : int;
  too_long : int;  (** Stops of walked points, by {!Recurrence.stop} constructor. *)
  failed : int;
      (** [Unsupported_t1], or a valid sequence whose cost was not
          finite or whose scoring raised. *)
  bounded : int;
      (** Grid points the first-reservation bound closed without a
          walk (and without a [charge]): the tail of the grid. *)
}

val scan :
  ?charge:(unit -> bool) ->
  Expected_cost.scoring ->
  Cost_model.t ->
  Distributions.Dist.t ->
  lo:float ->
  hi:float ->
  m:int ->
  scan
(** [scan scoring cost d ~lo ~hi ~m] scores the grid points
    [lo + i (hi - lo) / m], [i = 1 .. m], with {!Recurrence.score},
    until the first-reservation bound closes the rest of the grid.
    [charge] is called before each walked candidate; [false] ends the
    scan there ([candidates < m]), and it may raise to abort it. An
    exception raised before a candidate's verdict is known ends the
    scan with it. *)

val search :
  ?m:int ->
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  result
(** [search cost d] runs {!scan} over [m] (default [5000]) candidates.
    @raise Invalid_argument if no candidate has a finite cost. *)

val profile :
  ?m:int ->
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  (float * float option) array
(** [profile cost d] walks every grid point, with no bound, and
    returns, for each [t1], [Some
    normalized_cost] or [None] when the candidate was discarded — the
    data behind Fig. 3's per-distribution cost curves (with visible
    gaps at invalid candidates). *)

val cost_of_t1 :
  ?evaluator:evaluator ->
  Cost_model.t ->
  Distributions.Dist.t ->
  float ->
  float option
(** [cost_of_t1 cost d t1] evaluates a single candidate: [None] if the
    recurrence from [t1] is invalid (Table 3 prints these as "-"). *)
