(** Checkpointed reservation sequences — the extension sketched in the
    paper's conclusion ("include checkpoint snapshots at the end of
    some, if not all, reservations").

    With checkpointing, a failed reservation is not wasted: the work it
    completed (minus the checkpoint overhead) is preserved, and the
    next reservation resumes from the snapshot after paying a restart
    overhead. A reservation of length [l] therefore contributes
    [l - restart - checkpoint] units of progress when it fails
    ([restart] is only paid from the second reservation on), and the
    job of total work [t] completes in the first reservation [k] whose
    cumulative progress plus remaining length covers [t] (no trailing
    checkpoint is taken on success).

    The trade-off the paper anticipates is explicit here: overheads
    consume reservation time, but long jobs no longer restart from
    scratch, which shrinks the expensive tail of the cost
    distribution. *)

type params = {
  checkpoint_cost : float;  (** Time to write a snapshot, [>= 0]. *)
  restart_cost : float;  (** Time to restore one, [>= 0]. *)
}

val make_params : checkpoint_cost:float -> restart_cost:float -> params
(** @raise Invalid_argument on negative or non-finite overheads. *)

(* stochlint: allow UNUSED_EXPORT — test_checkpoint replays jobs through it to check expected_cost *)
val cost_of_run :
  ?max_steps:int ->
  params ->
  Cost_model.t ->
  Sequence.t ->
  float ->
  int * float
(** [cost_of_run p m s t] replays a job of duration [t] against the
    checkpointed sequence [s] and returns [(k, total cost)]. Failed
    reservations are paid in full ([alpha l + beta l + gamma]); the
    successful one pays its reserved length at [alpha] and only the
    time actually used at [beta].
    @raise Sequence.Not_covered if the sequence stops making progress
    before covering [t] (reservations shorter than the overheads
    contribute nothing), or after [max_steps] reservations. *)

(* stochlint: allow UNUSED_EXPORT — test_checkpoint checks it against the cost_of_run replay *)
val expected_cost :
  params ->
  Cost_model.t ->
  Distributions.Dist.t ->
  Sequence.t ->
  float
(** [expected_cost p m d s] evaluates the expectation of
    {!cost_of_run} over [d] exactly: the cost is affine in the job
    duration on each coverage slab [(c_(k-1), c_k]], so the expectation
    is a sum of slab masses and partial expectations (computed from the
    distribution's conditional mean) — [O(slots)], no quadrature. The
    series is truncated once the remaining tail mass drops below
    [1e-12]. Returns [infinity] for sequences that stop making
    progress (slots shorter than the overheads) or exceed [500_000]
    slots. *)

(* stochlint: allow UNUSED_EXPORT — test_checkpoint builds the replayed sequences with it *)
val periodic : chunk:float -> params -> float Seq.t
(** [periodic ~chunk p] is the infinite sequence whose every
    reservation completes exactly [chunk] units of new work:
    [t_1 = chunk + C], [t_i = R + chunk + C] for [i >= 2].
    @raise Invalid_argument if [chunk <= 0.]. *)

val optimize_chunk :
  ?m:int ->
  params ->
  Cost_model.t ->
  Distributions.Dist.t ->
  chunk_upper:float ->
  float * float
(** [optimize_chunk p cost d ~chunk_upper] grid-searches the periodic
    chunk size over [(0, chunk_upper]] with [m] (default [400]) points
    and returns [(best_chunk, expected_cost)]. *)

