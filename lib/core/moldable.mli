(** Moldable-job reservations — the paper's first future-work item:
    "allowing requests with variable amount of resources, hence
    offering a combination of a reservation time and a number of
    processors".

    Model: a job has a random sequential work [W ~ D]; on [p]
    processors it runs for [W / speedup p]. A reservation is a pair
    [(p, t)]; the platform charges the reserved {e area} at rate
    [alpha] ([alpha * p * t]), the job's own wall-clock usage at rate
    [beta] (waiting is not parallelised), and a fixed [gamma] per
    submission:

    {[ alpha * p * t + beta * min(t, runtime) + gamma ]}

    For a {e fixed} processor count the problem reduces exactly to
    STOCHASTIC: the runtime law is [D] scaled by [1/speedup p] and the
    cost model has [alpha' = alpha * p] — so the whole solver stack is
    reused unchanged, and optimising over [p] is a one-dimensional
    outer search. Structural facts covered by the test suite: with
    linear speedup and [beta = 0] the cost is independent of [p]; with
    linear speedup and [beta > 0] more processors always help; under
    Amdahl's law the area term makes very large [p] wasteful, giving a
    finite optimum. *)

type speedup =
  | Linear  (** [speedup p = p] (embarrassingly parallel). *)
  | Amdahl of float
      (** [Amdahl f]: parallel fraction [f] in [[0, 1]];
          [speedup p = 1 / ((1 - f) + f/p)]. *)
  | Power of float
      (** [Power e]: [speedup p = p^e] with [e] in [[0, 1]] — an
          empirical sublinear-scaling model. *)

(* stochlint: allow UNUSED_EXPORT — test_moldable pins the speedup laws *)
val speedup_factor : speedup -> int -> float
(** [speedup_factor s p] for [p >= 1].
    @raise Invalid_argument on [p < 1] or malformed parameters. *)

(* stochlint: allow UNUSED_EXPORT — test_moldable pins the runtime mean against the speedup law *)
val runtime_distribution :
  speedup -> procs:int -> Distributions.Dist.t -> Distributions.Dist.t
(** [runtime_distribution s ~procs d] is the law of
    [W / speedup_factor s procs] for [W ~ d]. *)

(* stochlint: allow UNUSED_EXPORT — test_moldable pins the area-rate scaling *)
val cost_model_for : Cost_model.t -> procs:int -> Cost_model.t
(** [cost_model_for m ~procs] scales the area rate:
    [alpha' = alpha * procs]; [beta] and [gamma] are wall-clock/
    per-submission and do not scale. *)

type result = {
  procs : int;  (** Optimal processor count found. *)
  t1 : float;  (** First reservation length at that count. *)
  expected_cost : float;
  per_procs : (int * float) array;
      (** Expected cost of the best sequence for every candidate
          count (the outer search's profile). *)
}

val optimize :
  ?max_procs:int ->
  ?m:int ->
  speedup ->
  Cost_model.t ->
  Distributions.Dist.t ->
  result
(** [optimize s cost d] runs BRUTE-FORCE (exact evaluator, [m] grid
    points, default [800]) for every processor count up to
    [max_procs] (default [64]) and returns the best combination.
    @raise Invalid_argument if [max_procs < 1]. *)
