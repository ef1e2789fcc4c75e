module Cost_model = Stochastic_core.Cost_model

type job_metrics = {
  id : int;
  nodes : int;
  duration : float;
  attempts : int;
  failures : int;
  total_wait : float;
  response : float;
  stretch : float;
  cost : float;
}

type summary = {
  jobs : int;
  completed : int;
  abandoned : int;
  nodes : int;
  policy : string;
  makespan : float;
  utilization : float;
  mean_wait : float;
  mean_stretch : float;
  p95_stretch : float;
  max_stretch : float;
  mean_attempts : float;
  mean_cost : float;
  node_failures : int;
  failure_kills : int;
  timeout_kills : int;
  goodput_node_time : float;
  failure_node_time : float;
  timeout_node_time : float;
  per_job : job_metrics array;
}

(* Attempt pricing by kill cause: completed and timed-out attempts pay
   their full reservation at alpha (the machine was booked), while a
   failure-killed attempt is billed only for the node-time it actually
   occupied — the platform revoked the capacity, as on spot markets.
   Every attempt pays the per-submission fee gamma. *)
let attempt_cost model (a : Job.attempt) =
  match a.Job.outcome with
  | Job.Success | Job.Timeout ->
      Cost_model.reservation_cost model ~reserved:a.Job.requested
        ~actual:a.Job.elapsed
  | Job.Node_failure ->
      Cost_model.reservation_cost model ~reserved:a.Job.elapsed
        ~actual:a.Job.elapsed

let job_cost model j =
  let acc = Numerics.Kahan.create () in
  Array.iter
    (fun a -> Numerics.Kahan.add acc (attempt_cost model a))
    (Job.attempts j);
  Numerics.Kahan.sum acc

let summarize ~model (r : Engine.result) =
  let done_jobs =
    Array.of_list
      (List.filter
         (fun j -> Job.state j = Job.Done)
         (Array.to_list r.Engine.jobs))
  in
  let per_job =
    Array.map
      (fun j ->
        {
          id = Job.id j;
          nodes = Job.nodes j;
          duration = Job.duration j;
          attempts = Array.length (Job.attempts j);
          failures = Job.failures j;
          total_wait = Job.total_wait j;
          response = Job.response j;
          stretch = Job.stretch j;
          cost = job_cost model j;
        })
      done_jobs
  in
  let mean f =
    if Array.length per_job = 0 then 0.0
    else Numerics.Stats.mean (Array.map f per_job)
  in
  let stretches = Array.map (fun m -> m.stretch) per_job in
  Numerics.Stats.sort stretches;
  let n = Array.length stretches in
  (* Node-time split by kill cause, over every attempt of every job
     (abandoned ones included: their burnt node-hours are real). *)
  let failure_kills = ref 0 and timeout_kills = ref 0 in
  let good = Numerics.Kahan.create ()
  and fail = Numerics.Kahan.create ()
  and tout = Numerics.Kahan.create () in
  Array.iter
    (fun j ->
      let nodes = float_of_int (Job.nodes j) in
      Array.iter
        (fun (a : Job.attempt) ->
          let node_time = nodes *. a.Job.elapsed in
          match a.Job.outcome with
          | Job.Success -> Numerics.Kahan.add good node_time
          | Job.Timeout ->
              incr timeout_kills;
              Numerics.Kahan.add tout node_time
          | Job.Node_failure ->
              incr failure_kills;
              Numerics.Kahan.add fail node_time)
        (Job.attempts j))
    r.Engine.jobs;
  {
    jobs = Array.length r.Engine.jobs;
    completed = Array.length done_jobs;
    abandoned = r.Engine.abandoned;
    nodes = r.Engine.nodes;
    policy = Policy.name r.Engine.policy;
    makespan = r.Engine.makespan;
    utilization = Engine.utilization r;
    mean_wait = mean (fun m -> m.total_wait);
    mean_stretch = mean (fun m -> m.stretch);
    (* Nearest-rank, not interpolated: a reported tail stretch should
       be one a job actually experienced (see Stats.quantile_nearest_rank). *)
    p95_stretch =
      (if n = 0 then 0.0
       else Numerics.Stats.quantile_nearest_rank_sorted stretches 0.95);
    max_stretch = (if n = 0 then 0.0 else stretches.(n - 1));
    mean_attempts = mean (fun m -> float_of_int m.attempts);
    mean_cost = mean (fun m -> m.cost);
    node_failures = r.Engine.node_failures;
    failure_kills = !failure_kills;
    timeout_kills = !timeout_kills;
    goodput_node_time = Numerics.Kahan.sum good;
    failure_node_time = Numerics.Kahan.sum fail;
    timeout_node_time = Numerics.Kahan.sum tout;
    per_job;
  }

let badput s = s.failure_node_time +. s.timeout_node_time

let goodput_fraction s =
  let total = s.goodput_node_time +. badput s in
  if total <= 0.0 then 1.0 else s.goodput_node_time /. total

(* ------------------------ closing the loop ------------------------ *)

let wait_records (r : Engine.result) =
  let records = ref [] in
  Array.iter
    (fun j ->
      Array.iter
        (fun (a : Job.attempt) ->
          records :=
            {
              Platform.Hpc_queue.requested = a.Job.requested;
              wait = a.Job.wait;
            }
            :: !records)
        (Job.attempts j))
    r.Engine.jobs;
  Array.of_list (List.rev !records)

let clamp_groups groups n = max 2 (min groups (n / 5))

let measured_fit ?(groups = 20) log =
  let n = Array.length log in
  if n < 10 then
    invalid_arg "Metrics.measured_fit: need at least 10 wait records";
  Platform.Hpc_queue.fit
    (Platform.Hpc_queue.bin_log ~groups:(clamp_groups groups n) log)

let measured_cost_model ?(beta = 1.0) ?groups (r : Engine.result) =
  let fit = measured_fit ?groups (wait_records r) in
  (fit, Platform.Hpc_queue.cost_model_of_fit ~beta fit)

let pp_summary fmt s =
  Format.fprintf fmt
    "%d/%d jobs done on %d nodes (%s): makespan %.2f h, utilization %.1f%%,@ \
     mean wait %.3f h, mean stretch %.3f (p95 %.3f, max %.3f),@ %.2f \
     submissions/job, mean cost %.4f"
    s.completed s.jobs s.nodes s.policy s.makespan
    (100.0 *. s.utilization)
    s.mean_wait s.mean_stretch s.p95_stretch s.max_stretch s.mean_attempts
    s.mean_cost;
  if s.node_failures > 0 || s.abandoned > 0 then
    Format.fprintf fmt
      ",@ %d node failures (%d attempts killed, %d abandoned jobs),@ \
       node-time: %.1f good / %.1f lost to failures / %.1f lost to timeouts \
       (goodput %.1f%%)"
      s.node_failures s.failure_kills s.abandoned s.goodput_node_time
      s.failure_node_time s.timeout_node_time
      (100.0 *. goodput_fraction s)
