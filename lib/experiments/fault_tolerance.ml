module Cost_model = Stochastic_core.Cost_model
module Strategy = Stochastic_core.Strategy
module Attempt = Stochastic_core.Attempt
module Dist = Distributions.Dist

type cell = {
  rate : float;
  checkpointed : bool;
  strategy : string;
  summary : Scheduler.Metrics.summary;
}

type t = {
  nodes : int;
  jobs : int;
  rates : float list;
  assumed : Cost_model.t;
  dist_name : string;
  cells : cell list;
  deterministic : bool;
}

(* Failures per node-hour. The harshest rate (MTBF 20 h) is of the
   order of the largest job lengths, so restart-from-scratch execution
   bleeds badly but still terminates under unlimited retries. *)
let rates = [ 0.0; 0.02; 0.05 ]

let strategies cfg =
  [
    ("mean-by-mean", Strategy.mean_by_mean);
    ( "equal-time",
      Strategy.dp_discretized ~scheme:Stochastic_core.Discretize.Equal_time
        ~n:cfg.Config.disc_n () );
  ]

(* Snapshot every hour of work at a 3-minute overhead (scaled by each
   job's size class in {!Scheduler.Workload.generate}). *)
let snapshots = Attempt.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }

let run ?(cfg = Config.paper) ?(log = Stochobs.Log.null) ?(jobs = 240)
    ?(nodes = 16) () =
  let assumed = Cost_model.neuro_hpc in
  let d = Distributions.Lognormal.default in
  let base_rng = Config.rng_for cfg "fault-tolerance" in
  let named = strategies cfg in
  let sequences =
    List.map (fun (name, s) -> (name, s.Strategy.build assumed d)) named
  in
  (* The workload calibration and the determinism re-run both key off
     the first strategy; destructure it once instead of three partial
     [List.hd]s. *)
  let lead =
    match sequences with
    | [] -> failwith "Fault_tolerance.run: no strategies configured"
    | s :: _ -> s
  in
  (* Small size classes (0.1x-0.5x): every job is completable in one
     reservation with reasonable probability even at the highest
     failure rate, so the uncheckpointed arm terminates. *)
  let scale_min = 0.1 and scale_max = 0.5 in
  let nodes_min = 1 and nodes_max = 4 in
  let arrival_rate =
    Scheduler.Workload.rate_for_load ~nodes_min ~nodes_max ~scale_min
      ~scale_max
      ~sequence:(snd lead)
      ~load:1.1 ~cluster_nodes:nodes d
  in
  let spec =
    Scheduler.Workload.make_spec ~nodes_min ~nodes_max ~scale_min ~scale_max
      ~jobs ~arrival_rate ()
  in
  let simulate ~rate ~checkpointed (name, sequence) =
    (* Common random numbers: every cell replays the same arrivals,
       durations and node counts; only the failure process and the
       checkpoint discipline vary. *)
    let rng = Randomness.Rng.copy base_rng in
    let recovery = if checkpointed then snapshots else Attempt.Restart in
    let workload = Scheduler.Workload.generate ~recovery spec d ~sequence rng in
    let faults =
      if rate <= 0.0 then None
      else
        Some
          (Scheduler.Faults.make ~seed:(cfg.Config.seed + 101)
             ~mean_repair:0.25
             (Scheduler.Faults.exponential ~mtbf:(1.0 /. rate)))
    in
    let result =
      Scheduler.Engine.run
        (Scheduler.Engine.make_config ?faults ~nodes
           ~policy:Scheduler.Policy.Easy_backfill ())
        workload
    in
    let summary = Scheduler.Metrics.summarize ~model:assumed result in
    Stochobs.Log.infof log
      "fault-tolerance: rate %.2f/h, %s, %s: %d/%d done, goodput %.1f%%" rate
      (if checkpointed then "ckpt" else "restart")
      name summary.Scheduler.Metrics.completed jobs
      (100.0 *. Scheduler.Metrics.goodput_fraction summary);
    { rate; checkpointed; strategy = name; summary }
  in
  let cells =
    List.concat_map
      (fun rate ->
        List.concat_map
          (fun checkpointed ->
            List.map (simulate ~rate ~checkpointed) sequences)
          [ false; true ])
      rates
  in
  (* Re-run the harshest cell: seeded faults must reproduce the full
     summary (per-job metrics included) bit-for-bit. *)
  let deterministic =
    let harshest = List.fold_left max 0.0 rates in
    let again = simulate ~rate:harshest ~checkpointed:true lead in
    let first =
      List.find
        (fun c ->
          c.rate = harshest && c.checkpointed
          && c.strategy = fst lead)
        cells
    in
    compare first.summary again.summary = 0
  in
  { nodes; jobs; rates; assumed; dist_name = d.Dist.name; cells; deterministic }

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "fault sweep: %d nodes, %d jobs, %s, exponential failures, repair 0.25 \
        h, checkpoint period 1.0 h\n"
       t.nodes t.jobs t.dist_name);
  Buffer.add_string buf
    "rate/h   MTBF   arm      strategy       done  aband  fails  kills  \
     subs   cost  goodput%\n";
  List.iter
    (fun c ->
      let s = c.summary in
      Buffer.add_string buf
        (Printf.sprintf
           "%5.2f  %5s  %-7s  %-13s  %4d  %5d  %5d  %5d  %4.2f  %5.2f  %7.1f\n"
           c.rate
           (* stochlint: allow FLOAT_EQ — rate 0.0 comes literally from the rate grid (MTBF display) *)
           (if c.rate = 0.0 then "inf"
            else Printf.sprintf "%.0fh" (1.0 /. c.rate))
           (if c.checkpointed then "ckpt" else "restart")
           c.strategy s.Scheduler.Metrics.completed
           s.Scheduler.Metrics.abandoned s.Scheduler.Metrics.node_failures
           s.Scheduler.Metrics.failure_kills s.Scheduler.Metrics.mean_attempts
           s.Scheduler.Metrics.mean_cost
           (100.0 *. Scheduler.Metrics.goodput_fraction s)))
    t.cells;
  Buffer.add_string buf
    (Printf.sprintf "deterministic replay of the harshest cell: %b\n"
       t.deterministic);
  Buffer.contents buf

let find t ~rate ~checkpointed ~strategy =
  List.find
    (fun c ->
      c.rate = rate && c.checkpointed = checkpointed && c.strategy = strategy)
    t.cells

let sanity t =
  let high = List.fold_left max 0.0 t.rates in
  let strategy_names = List.map (fun c -> c.strategy) t.cells |> List.sort_uniq compare in
  let all_done =
    List.for_all
      (fun c ->
        c.summary.Scheduler.Metrics.completed = t.jobs
        && c.summary.Scheduler.Metrics.abandoned = 0)
      t.cells
  in
  let reliable_clean =
    List.for_all
      (fun c ->
        c.rate > 0.0
        || c.summary.Scheduler.Metrics.node_failures = 0
           && c.summary.Scheduler.Metrics.failure_kills = 0)
      t.cells
  in
  let failures_seen =
    List.for_all
      (* stochlint: allow FLOAT_EQ — rate 0.0 comes literally from the rate grid (zero-failure arm) *)
      (fun c -> c.rate = 0.0 || c.summary.Scheduler.Metrics.node_failures > 0)
      t.cells
  in
  let dominance =
    (* The headline claim: once failures are frequent, checkpointing
       strictly dominates restart-from-scratch in expected cost. *)
    List.for_all
      (fun s ->
        let ckpt = find t ~rate:high ~checkpointed:true ~strategy:s in
        let restart = find t ~rate:high ~checkpointed:false ~strategy:s in
        ckpt.summary.Scheduler.Metrics.mean_cost
        < restart.summary.Scheduler.Metrics.mean_cost)
      strategy_names
  in
  let goodput_ordered =
    (* Checkpoints salvage work: at the harsh rate the checkpointed arm
       wastes less node-time per unit of goodput. *)
    List.for_all
      (fun s ->
        let ckpt = find t ~rate:high ~checkpointed:true ~strategy:s in
        let restart = find t ~rate:high ~checkpointed:false ~strategy:s in
        Scheduler.Metrics.goodput_fraction ckpt.summary
        > Scheduler.Metrics.goodput_fraction restart.summary)
      strategy_names
  in
  [
    ("every cell completes all jobs (no abandonment)", all_done);
    ("zero-rate cells see no failures", reliable_clean);
    ("every faulty cell records node failures", failures_seen);
    ( "checkpointing strictly cheaper than restart at the highest rate",
      dominance );
    ("checkpointing improves goodput at the highest rate", goodput_ordered);
    ("harshest cell replays bit-for-bit", t.deterministic);
  ]
