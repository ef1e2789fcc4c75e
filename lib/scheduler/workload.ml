module Dist = Distributions.Dist

type spec = {
  jobs : int;
  arrival_rate : float;
  nodes_min : int;
  nodes_max : int;
  scale_min : float;
  scale_max : float;
}

let make_spec ?(nodes_min = 1) ?(nodes_max = 8) ?(scale_min = 1.0)
    ?(scale_max = 1.0) ~jobs ~arrival_rate () =
  if jobs <= 0 then invalid_arg "Workload.make_spec: jobs must be positive";
  if not (Float.is_finite arrival_rate) || arrival_rate <= 0.0 then
    invalid_arg "Workload.make_spec: arrival rate must be positive";
  if nodes_min <= 0 || nodes_max < nodes_min then
    invalid_arg "Workload.make_spec: need 0 < nodes_min <= nodes_max";
  if
    (not (Float.is_finite scale_min))
    || (not (Float.is_finite scale_max))
    || scale_min <= 0.0
    || scale_max < scale_min
  then invalid_arg "Workload.make_spec: need 0 < scale_min <= scale_max";
  { jobs; arrival_rate; nodes_min; nodes_max; scale_min; scale_max }

let mean_job_nodes spec =
  float_of_int (spec.nodes_min + spec.nodes_max) /. 2.0

(* Mean of a log-uniform draw on [lo, hi]: (hi - lo) / ln (hi / lo). *)
let log_uniform_mean lo hi =
  if hi -. lo < 1e-12 *. lo then lo else (hi -. lo) /. log (hi /. lo)

let mean_scale spec = log_uniform_mean spec.scale_min spec.scale_max

(* Expected node-hours a single job consumes under a reservation
   sequence: the successful attempt runs the true duration, and every
   failed attempt [t_i < X] burns its full reservation first, so
   E[consumed] = E[X] + sum_i t_i * P(X > t_i). Without this waste
   term a nominal load of 0.7 can already saturate the cluster. *)
let expected_consumed d sequence =
  let prefix =
    Stochastic_core.Sequence.prefix_until
      (fun t -> Dist.sf d t < 1e-12)
      sequence
  in
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc d.Dist.mean;
  Array.iter (fun t -> Numerics.Kahan.add acc (t *. Dist.sf d t)) prefix;
  Numerics.Kahan.sum acc

let rate_for_load ?(nodes_min = 1) ?(nodes_max = 8) ?(scale_min = 1.0)
    ?(scale_max = 1.0) ?sequence ~load ~cluster_nodes d =
  if not (Float.is_finite load) || load <= 0.0 then
    invalid_arg "Workload.rate_for_load: load must be positive";
  if cluster_nodes <= 0 then
    invalid_arg "Workload.rate_for_load: cluster_nodes must be positive";
  let hours_per_job =
    match sequence with
    | Some s -> expected_consumed d s
    | None -> d.Dist.mean
  in
  let mean_nodes = float_of_int (nodes_min + nodes_max) /. 2.0 in
  let work_per_job =
    hours_per_job *. mean_nodes *. log_uniform_mean scale_min scale_max
  in
  if not (Float.is_finite work_per_job) || work_per_job <= 0.0 then
    invalid_arg "Workload.rate_for_load: expected work must be positive";
  load *. float_of_int cluster_nodes /. work_per_job

let offered_load ?sequence spec ~cluster_nodes d =
  let hours_per_job =
    match sequence with
    | Some s -> expected_consumed d s
    | None -> d.Dist.mean
  in
  spec.arrival_rate *. hours_per_job *. mean_job_nodes spec *. mean_scale spec
  /. float_of_int cluster_nodes

let generate ?(recovery = Stochastic_core.Attempt.Restart) spec d ~sequence rng =
  let clock = ref 0.0 in
  Array.init spec.jobs (fun id ->
      clock :=
        !clock
        +. Randomness.Sampler.exponential rng ~rate:spec.arrival_rate;
      (* Per-job size class: durations and reservations both scale by a
         log-uniform factor, modelling a user population whose job
         sizes span a wide range while each user follows the paper's
         strategy on their own (scaled) distribution. This is what
         spreads requested walltimes across the log, as in real
         scheduler traces. *)
      let scale =
        if spec.scale_max -. spec.scale_min < 1e-12 *. spec.scale_min then
          spec.scale_min
        else
          exp
            (Randomness.Rng.uniform rng (log spec.scale_min)
               (log spec.scale_max))
      in
      let duration = Float.max 1e-9 (scale *. d.Dist.sample rng) in
      let nodes =
        spec.nodes_min
        + Randomness.Rng.int rng (spec.nodes_max - spec.nodes_min + 1)
      in
      let scaled_sequence = Seq.map (fun t -> scale *. t) sequence in
      (* The snapshot discipline scales with the job's size class:
         snapshot state (and therefore snapshot/restore time) grows
         with the job, and the period keeps the same proportional
         overhead a user would tune for their own jobs. *)
      let recovery =
        match recovery with
        | Stochastic_core.Attempt.Restart -> recovery
        | Snapshot { period; snapshot_cost; restore_cost } ->
            Snapshot
              {
                period = scale *. period;
                snapshot_cost = scale *. snapshot_cost;
                restore_cost = scale *. restore_cost;
              }
      in
      Job.make ~recovery ~id ~nodes ~arrival:!clock ~duration scaled_sequence)
