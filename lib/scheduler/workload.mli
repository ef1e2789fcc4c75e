(** Workload generation for the cluster simulator.

    Draws a stream of jobs with Poisson arrivals, execution times from
    any {!Distributions.Dist.t}, uniformly distributed node counts, and
    reservation requests taken from a shared strategy sequence — the
    multi-user version of the paper's single-job setting. *)

type spec = {
  jobs : int;  (** Number of jobs to generate. *)
  arrival_rate : float;  (** Poisson arrival rate (jobs per hour). *)
  nodes_min : int;  (** Smallest per-job node count. *)
  nodes_max : int;  (** Largest per-job node count (uniform draw). *)
  scale_min : float;  (** Smallest per-job size-class factor. *)
  scale_max : float;
      (** Largest size-class factor (log-uniform draw). A job of class
          [c] has duration [c * X] and reservations [c * t_i]: the
          strategy applied to the user's own scaled distribution. *)
}

val make_spec :
  ?nodes_min:int ->
  ?nodes_max:int ->
  ?scale_min:float ->
  ?scale_max:float ->
  jobs:int ->
  arrival_rate:float ->
  unit ->
  spec
(** Defaults: [nodes_min = 1], [nodes_max = 8],
    [scale_min = scale_max = 1.] (homogeneous population).
    @raise Invalid_argument on non-positive [jobs]/[arrival_rate], an
    empty node range, or an invalid scale range. *)

val rate_for_load :
  ?nodes_min:int ->
  ?nodes_max:int ->
  ?scale_min:float ->
  ?scale_max:float ->
  ?sequence:Stochastic_core.Sequence.t ->
  load:float ->
  cluster_nodes:int ->
  Distributions.Dist.t ->
  float
(** [rate_for_load ~load ~cluster_nodes d] is the arrival rate at which
    the offered work [rate * E(consumed) * E(nodes)] equals [load]
    times the cluster capacity — [load -> 1] drives the system into
    sustained contention. When [sequence] is given, per-job work is the
    expected node time the sequence consumes, killed reservations
    included; otherwise just [E(X)]. *)

val offered_load :
  ?sequence:Stochastic_core.Sequence.t ->
  spec ->
  cluster_nodes:int ->
  Distributions.Dist.t ->
  float
(** Inverse of {!rate_for_load}: the load a spec offers a cluster. *)

val generate :
  ?recovery:Stochastic_core.Attempt.recovery ->
  spec ->
  Distributions.Dist.t ->
  sequence:Stochastic_core.Sequence.t ->
  Randomness.Rng.t ->
  Job.t array
(** [generate spec d ~sequence rng] draws the workload. All jobs share
    [sequence] (they face the same distribution and cost model) but
    each materialises only the prefix covering its own duration.
    Under [Snapshot] [recovery] (default [Restart]) every job
    snapshots periodically, with the period and the overheads scaled by
    its size class (snapshot state grows with the job); {!Job.make}
    validates the scaled discipline. Deterministic given the rng
    state. *)
