(* What a workload gives the harness. *)

type instance = {
  run_op : obs:Stochobs.Trace.sink -> int -> Common.outcome;
      (** Run op [i] of the current pass. Ops run in a fixed seeded
          order and a run is a whole number of passes. *)
  inputs : obs:Stochobs.Trace.sink -> Layers.inputs;
      (** The inputs of the last pass, for the per-layer timings; any
          solve it runs reports to [obs]. *)
}

type t = {
  name : string;
  ops_per_pass : int;
  replicas : int;
      (** Independent set-ups per untraced run; the determinism gate
          compares their passes. *)
  cheap_setup : bool;
      (** Whether a set-up is cheap enough to be timed again after every
          op: [setup_s] is then the median over the whole run rather
          than over one instant of a noisy host. *)
  pass_s : float;
      (** Nominal seconds of one pass on the reference host (README.md):
          a run of [--seconds S] runs about [S / pass_s] passes. *)
  min_ops : int;  (** Ops an end-to-end run needs at least. *)
  center : [ `Median | `Geometric_mean ];
      (** The statistic in the [p50_ms] slot: the nearest-rank median,
          or, for a run of a few ops of unequal cost whose median would
          be one op of one class, the geometric mean of the op
          latencies, to which every op contributes. *)
  clock_free_alloc : bool;
      (** Whether what the ops allocate is independent of the clock, so
          the GC counts are exact. *)
  seed_keyed : bool;
      (** Whether the ops depend on the seed beyond their order. *)
  setup :
    seed:int ->
    view:(Distributions.Dist.t -> Distributions.Dist.t) ->
    obs:Stochobs.Trace.sink ->
    instance;
      (** [view] wraps every law the ops use; [obs] is the sink of
          anything built at set-up time, such as the server. *)
}
