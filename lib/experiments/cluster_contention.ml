module Cost_model = Stochastic_core.Cost_model
module Strategy = Stochastic_core.Strategy
module Dist = Distributions.Dist

type row = {
  strategy : string;
  policy : string;
  utilization : float;
  makespan : float;
  mean_wait : float;
  mean_stretch : float;
  mean_attempts : float;
  fit : Numerics.Regression.fit;
}

type t = {
  nodes : int;
  jobs : int;
  load : float;
  assumed : Cost_model.t;
  dist_name : string;
  rows : row list;
  measured : Cost_model.t option;
      (* From the EASY x first-strategy run, when the fit is usable. *)
  self_consistent : (string * float) list;
      (* Normalized expected cost of each strategy under [measured]. *)
}

let strategies cfg =
  [
    ( "brute-force",
      Strategy.brute_force ~m:cfg.Config.m ~n:cfg.Config.n_mc
        ~seed:cfg.Config.seed () );
    ("mean-by-mean", Strategy.mean_by_mean);
    ( "equal-time",
      Strategy.dp_discretized ~scheme:Stochastic_core.Discretize.Equal_time
        ~n:cfg.Config.disc_n () );
  ]

let run ?(cfg = Config.paper) ?(jobs = 1500) ?(nodes = 32) ?(load = 1.15) () =
  let assumed = Cost_model.neuro_hpc in
  let d = Distributions.Lognormal.default in
  let base_rng = Config.rng_for cfg "cluster-contention" in
  let named = strategies cfg in
  let sequences =
    List.map (fun (name, s) -> (name, s.Strategy.build assumed d)) named
  in
  (* One arrival rate for every combination (common random numbers),
     calibrated on the first strategy's expected consumed node-hours. *)
  let lead_sequence =
    match sequences with
    | [] -> failwith "Cluster_contention.run: no strategies configured"
    | (_, sequence) :: _ -> sequence
  in
  (* Wide size-class spectrum (0.1x-10x): the requested-walltime spread
     is what lets the wait-vs-requested fit see the backfilling
     discrimination; at this load the queue never drains, so packing
     quality (EASY vs FCFS) shows up directly in utilization. *)
  let scale_min = 0.1 and scale_max = 10.0 in
  let arrival_rate =
    Scheduler.Workload.rate_for_load ~scale_min ~scale_max
      ~sequence:lead_sequence
      ~load ~cluster_nodes:nodes d
  in
  let spec =
    Scheduler.Workload.make_spec ~scale_min ~scale_max ~jobs ~arrival_rate ()
  in
  let simulate policy (name, sequence) =
    (* Common random numbers: every (policy, strategy) combination
       replays the same arrivals, durations and node counts. *)
    let rng = Randomness.Rng.copy base_rng in
    let workload = Scheduler.Workload.generate spec d ~sequence rng in
    let result =
      Scheduler.Engine.run
        (Scheduler.Engine.make_config ~nodes ~policy ())
        workload
    in
    let summary = Scheduler.Metrics.summarize ~model:assumed result in
    let fit = Scheduler.Metrics.measured_fit (Scheduler.Metrics.wait_records result) in
    ( {
        strategy = name;
        policy = Scheduler.Policy.name policy;
        utilization = summary.Scheduler.Metrics.utilization;
        makespan = summary.Scheduler.Metrics.makespan;
        mean_wait = summary.Scheduler.Metrics.mean_wait;
        mean_stretch = summary.Scheduler.Metrics.mean_stretch;
        mean_attempts = summary.Scheduler.Metrics.mean_attempts;
        fit;
      },
      result )
  in
  let rows_and_results =
    List.concat_map
      (fun policy -> List.map (simulate policy) sequences)
      Scheduler.Policy.all
  in
  let rows = List.map fst rows_and_results in
  (* Close the loop on the EASY run of the first (reference) strategy:
     measure (alpha, gamma) from its simulated contention and re-score
     every strategy under the measured cost model. *)
  let measured =
    List.find_map
      (fun ((row : row), result) ->
        if row.policy = "easy" then
          match Scheduler.Metrics.measured_cost_model result with
          | _, m -> Some m
          | exception Invalid_argument _ -> None
        else None)
      rows_and_results
  in
  let self_consistent =
    match measured with
    | None -> []
    | Some m ->
        let rng = Config.rng_for cfg "cluster-self-consistent" in
        let samples = Dist.samples d rng cfg.Config.n_mc in
        Numerics.Stats.sort samples;
        List.map
          (fun (name, s) ->
            (name, Strategy.evaluate_on m d ~sorted_samples:samples s))
          named
  in
  {
    nodes;
    jobs;
    load;
    assumed;
    dist_name = d.Dist.name;
    rows;
    measured;
    self_consistent;
  }

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "cluster: %d nodes, %d jobs, offered load %.2f, %s, assumed (alpha, \
        gamma) = (%.2f, %.2f)\n"
       t.nodes t.jobs t.load t.dist_name t.assumed.Cost_model.alpha
       t.assumed.Cost_model.gamma);
  Buffer.add_string buf
    "policy  strategy        util%%  makespan    wait  stretch  subs  \
     meas.alpha  meas.gamma\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-6s  %-13s  %5.1f  %8.1f  %6.2f  %7.2f  %4.2f  %10.3f  %10.3f\n"
           r.policy r.strategy
           (100.0 *. r.utilization)
           r.makespan r.mean_wait r.mean_stretch r.mean_attempts
           r.fit.Numerics.Regression.slope r.fit.Numerics.Regression.intercept))
    t.rows;
  (match t.measured with
  | None ->
      Buffer.add_string buf
        "measured cost model: unusable fit (no affine contention signal)\n"
  | Some m ->
      Buffer.add_string buf
        (Printf.sprintf
           "measured cost model (EASY contention): alpha=%.3f beta=%.2f \
            gamma=%.3f\n"
           m.Cost_model.alpha m.Cost_model.beta m.Cost_model.gamma);
      List.iter
        (fun (name, cost) ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %-13s normalized E(cost) under measured model: %.4f\n" name
               cost))
        t.self_consistent);
  Buffer.contents buf

let find_rows t ~policy = List.filter (fun r -> r.policy = policy) t.rows

let sanity t =
  let easy = find_rows t ~policy:"easy" in
  let fcfs = find_rows t ~policy:"fcfs" in
  let util_ok r = r.utilization > 0.0 && r.utilization <= 1.0 in
  let paired =
    List.map
      (fun e ->
        let f = List.find (fun r -> r.strategy = e.strategy) fcfs in
        (e, f))
      easy
  in
  [
    ("all utilizations in (0, 1]", List.for_all util_ok t.rows);
    ("all mean stretches >= 1", List.for_all (fun r -> r.mean_stretch >= 1.0) t.rows);
    ( "EASY backfilling beats FCFS utilization for every strategy",
      List.for_all (fun (e, f) -> e.utilization > f.utilization +. 0.01) paired
    );
    ( "EASY wait-time fits have positive slope",
      List.for_all (fun r -> r.fit.Numerics.Regression.slope > 0.0) easy );
    ( "EASY wait-time fits have positive intercept",
      List.for_all (fun r -> r.fit.Numerics.Regression.intercept > 0.0) easy );
    ("measured cost model recovered", t.measured <> None);
    ( "self-consistent scores computed for every strategy",
      List.length t.self_consistent = List.length easy );
  ]
