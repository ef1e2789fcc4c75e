(** Deterministic discrete-event simulator of a node-constrained,
    {e fallible} cluster running many stochastic jobs concurrently.

    Events (arrivals, attempt ends, node failures and repairs) are
    drained from a binary-heap {!Event_queue}; after each event the
    configured {!Policy} dispatches pending jobs. A job that times out
    is resubmitted immediately with its next reservation, so the
    paper's sequence-of-reservations execution model plays out under
    real contention — queue waits emerge from the simulation instead of
    being assumed affine.

    With a {!Faults.config}, per-node [Node_down]/[Node_up] events
    shrink and grow the dispatchable pool. A failure under a running
    job kills the attempt mid-flight (kill cause [Node_failure], as
    opposed to a reservation [Timeout]); checkpointed jobs resume from
    their last snapshot, and the {!retry} policy bounds how many times
    a job is resubmitted after failures (with an optional backoff
    delay) before being abandoned.

    All randomness lives in the workload and the seeded fault traces;
    the engine itself is purely deterministic, and simultaneous events
    are ordered by scheduling sequence, so fixed seeds reproduce runs
    bit-for-bit. With no faults configured the engine is event-for-
    event identical to the failure-free simulator. *)

type retry = {
  max_retries : int option;
      (** Failure-caused resubmissions allowed per job; [None] =
          unlimited. Timeouts never count against this budget. *)
  backoff : float;  (** Delay before re-queueing a failure-killed job. *)
}

val make_retry : ?max_retries:int -> ?backoff:float -> unit -> retry
(** @raise Invalid_argument on negative arguments. *)

type config = {
  nodes : int;
  policy : Policy.t;
  faults : Faults.config option;  (** [None] = perfectly reliable. *)
  retry : retry;
  obs : Stochobs.Trace.sink;
      (** Trace sink for the run span and outage events; defaults to
          {!Stochobs.Trace.null}. *)
}

val make_config :
  ?obs:Stochobs.Trace.sink ->
  ?faults:Faults.config ->
  ?retry:retry ->
  nodes:int ->
  policy:Policy.t ->
  unit ->
  config

type result = {
  jobs : Job.t array;
      (** The input jobs, each [Done] or [Abandoned] on return. *)
  nodes : int;
  policy : Policy.t;
  makespan : float;  (** Last completion time. *)
  busy_node_time : float;  (** Integrated allocated node-time. *)
  events : int;  (** Events processed (diagnostics). *)
  node_failures : int;  (** [Node_down] events processed. *)
  abandoned : int;  (** Jobs that exhausted their retry budget. *)
}

val run : config -> Job.t array -> result
(** [run config jobs] simulates until every job is [Done] or
    [Abandoned] and returns the final state. The [jobs] array is
    mutated in place (attempt histories, checkpoint progress). With a
    live [config.obs] the whole simulation runs inside a
    ["scheduler.engine.run"] span annotated with the final makespan
    and event count, and each outage emits a
    ["scheduler.engine.node_down"]/[..node_up] point event.
    @raise Invalid_argument if a job needs more nodes than the cluster
    has.
    @raise Failure on internal invariant violations: a job dispatched
    before its submission time (event-order corruption) or a negative
    busy-time integral. *)

val utilization : result -> float
(** [busy_node_time / (nodes * makespan)], clamped to [[0, 1]]. Node
    outages depress it: down time is capacity the denominator still
    counts. *)
