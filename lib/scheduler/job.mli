(** A stochastic job flowing through the cluster simulator.

    Each job has a true execution time drawn from the workload
    distribution — unknown to the scheduler — and carries the prefix of
    a reservation sequence from {!Stochastic_core.Strategy} as its
    successive walltime requests: attempt [i] requests [t_i], runs
    until it completes, its reservation expires, or its node fails.
    Every closed attempt records its kill cause ({!outcome}) and queue
    wait, producing the [(requested, wait)] records that close the loop
    with {!Platform.Hpc_queue}.

    {b Kill-cause taxonomy.} [Success]: the job completed within the
    reservation. [Timeout]: the reservation expired first — the job is
    resubmitted with the {e next} reservation of its sequence (the
    paper's execution model). [Node_failure]: a node under the job
    died mid-attempt — the request was not too short, so the job
    retries the {e same} reservation (subject to the engine's retry
    policy).

    {b Checkpointing.} Every attempt is accounted by
    {!Stochastic_core.Attempt} under the job's recovery discipline.
    With [Snapshot] recovery, work covered by a {e completed} snapshot
    survives both timeouts and node failures, so progress is monotone
    across attempts; work in the open period is lost with the attempt.
    Under [Restart] (the default) every attempt restarts from
    scratch. *)

type outcome = Success | Timeout | Node_failure

type attempt = {
  requested : float;  (** Requested walltime [t_i]. *)
  submitted : float;  (** When this attempt entered the queue. *)
  started : float;  (** When it was dispatched. *)
  wait : float;  (** [started - submitted]. *)
  elapsed : float;  (** Node time actually occupied. *)
  outcome : outcome;  (** How the attempt ended. *)
  progress_after : float;  (** Durable work after the attempt closed. *)
}

type state = Waiting | Running | Done | Abandoned

type t

val make :
  ?recovery:Stochastic_core.Attempt.recovery ->
  id:int ->
  nodes:int ->
  arrival:float ->
  duration:float ->
  Stochastic_core.Sequence.t ->
  t
(** [make ~id ~nodes ~arrival ~duration s] materialises the prefix of
    [s] needed to cover [duration] and creates a waiting job.
    @raise Invalid_argument on non-positive [nodes]/[duration],
    negative [arrival], or a [recovery] that
    {!Stochastic_core.Attempt.validate} rejects.
    @raise Stochastic_core.Sequence.Not_covered if [s] cannot cover
    [duration]. *)

val id : t -> int
val nodes : t -> int
val duration : t -> float
val arrival : t -> float
val state : t -> state

val submitted : t -> float
(** Submission time of the current attempt. *)

val failures : t -> int
(** Node-failure kills suffered so far. *)

val epoch : t -> int
(** Dispatch counter; increments on every {!start}. The engine tags
    completion events with it to invalidate events scheduled for an
    attempt that a failure already killed. *)

val request : t -> float
(** Requested walltime of the current attempt. Past the materialised
    prefix (reachable only with checkpointing) the last, covering
    reservation is re-requested. *)

val attempt_span : t -> float * bool
(** [(span, completes)]: how long the current attempt will occupy its
    nodes if no failure interrupts it, and whether it finishes the job
    ([span] then includes restore and checkpoint overheads) or times
    out ([span] is the full reservation).
    @raise Invalid_argument once the job is [Done] or [Abandoned]. *)

val start : t -> now:float -> unit
(** Transition [Waiting -> Running] at [now] (engine only).
    @raise Invalid_argument if the job is not waiting. *)

val finish_attempt : t -> now:float -> bool
(** [finish_attempt j ~now] closes the running attempt at its natural
    end: records it, and either completes the job (returns [true]) or
    resubmits it at [now] with the next reservation (returns [false]).
    @raise Invalid_argument if the job is not running.
    @raise Stochastic_core.Sequence.Not_covered if snapshot overheads
    make progress impossible (no snapshot ever completes inside the
    last, largest reservation). *)

val interrupt : t -> now:float -> unit
(** [interrupt j ~now] kills the running attempt mid-flight (node
    failure): records it with outcome [Node_failure], salvages
    checkpointed progress, and leaves the job [Waiting] on the same
    reservation. The engine then either {!resubmit}s or {!abandon}s it.
    @raise Invalid_argument if the job is not running. *)

val resubmit : t -> at:float -> unit
(** Re-queue a failure-killed job at time [at] (>= kill time when the
    retry policy imposes a backoff delay).
    @raise Invalid_argument if the job is not waiting. *)

val abandon : t -> unit
(** Give up on a failure-killed job (retry budget exhausted).
    @raise Invalid_argument if the job is not waiting. *)

val attempts : t -> attempt array
(** All closed attempts in chronological order. *)

val total_wait : t -> float
(** Sum of queue waits over all closed attempts. *)

val response : t -> float
(** [finish_time - arrival]. @raise Invalid_argument unless [Done]. *)

val stretch : t -> float
(** [response / duration >= 1]. @raise Invalid_argument unless
    [Done]. *)
