(* Command-line interface to the reservation-strategy library.

   Examples:
     stochastic-reservations sequence --dist lognormal --strategy brute-force
     stochastic-reservations evaluate --dist weibull --strategy equal-time
     stochastic-reservations simulate --input-trace runs.csv --jobs 2000 --hpc
     stochastic-reservations solve --dist lognormal --trace /tmp/solve.jsonl
     stochastic-reservations table2 --quick
     stochastic-reservations s1 *)

open Cmdliner

module Dist = Distributions.Dist
module Cost_model = Stochastic_core.Cost_model
module Strategy = Stochastic_core.Strategy
module Sequence = Stochastic_core.Sequence
module Expected_cost = Stochastic_core.Expected_cost

(* ------------------------- common arguments ----------------------- *)

let dist_arg =
  let doc =
    "Execution-time distribution: one of the Table 1 names (exponential, \
     weibull, gamma, lognormal, truncatednormal, pareto, uniform, beta, \
     boundedpareto) or 'vbmqa' / 'fmriqa' for the neuroscience fits."
  in
  Arg.(value & opt string "lognormal" & info [ "dist"; "d" ] ~docv:"NAME" ~doc)

let input_trace_arg =
  let doc =
    "CSV trace of execution times (one per line); used as an interpolated \
     empirical distribution instead of $(b,--dist)."
  in
  Arg.(value & opt (some file) None & info [ "input-trace" ] ~docv:"FILE" ~doc)

let fit_arg =
  let doc =
    "Fit a LogNormal to the $(b,--input-trace) CSV (as the paper does for \
     Fig. 1) instead of interpolating it directly."
  in
  Arg.(value & flag & info [ "fit-lognormal" ] ~doc)

(* Name resolution is shared with the serve daemon's JSONL request
   parser (Stochserve.Resolve), so the two surfaces cannot drift; the
   CLI's contribution is mapping the Error branch to usage exit 2. *)
let usage_exit = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let resolve_dist ?hpc name trace fit =
  usage_exit (Stochserve.Resolve.dist ?hpc ?trace:trace ~fit name)

let alpha_arg =
  Arg.(value & opt float 1.0 & info [ "alpha" ] ~docv:"A"
         ~doc:"Cost per unit of reserved time.")

let beta_arg =
  Arg.(value & opt float 0.0 & info [ "beta" ] ~docv:"B"
         ~doc:"Cost per unit of used time.")

let gamma_arg =
  Arg.(value & opt float 0.0 & info [ "gamma" ] ~docv:"G"
         ~doc:"Fixed cost per reservation.")

let hpc_arg =
  Arg.(value & flag
       & info [ "hpc" ]
           ~doc:
             "Use the NeuroHPC cost model (alpha=0.95, beta=1, gamma=1.05 \
              hours) instead of --alpha/--beta/--gamma.")

let resolve_model hpc alpha beta gamma =
  usage_exit (Stochserve.Resolve.model ~hpc ~alpha ~beta ~gamma)

let strategy_arg =
  let doc =
    "Reservation strategy: brute-force, mean-by-mean, mean-stdev, \
     mean-doubling, median-by-median, equal-time, equal-probability."
  in
  Arg.(value & opt string "brute-force" & info [ "strategy"; "s" ] ~docv:"NAME" ~doc)

let m_arg =
  Arg.(value & opt int 5000
       & info [ "m" ] ~docv:"M" ~doc:"Brute-force grid size.")

let n_mc_arg =
  Arg.(value & opt int 1000
       & info [ "n" ] ~docv:"N" ~doc:"Monte-Carlo sample count.")

let disc_n_arg =
  Arg.(value & opt int 1000
       & info [ "disc-n" ] ~docv:"K" ~doc:"Discretization sample count.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let resolve_strategy name ~m ~n ~disc_n ~seed =
  usage_exit (Stochserve.Resolve.strategy ~m ~n ~disc_n ~seed name)

(* ----------------------- observability flags ---------------------- *)

type obs_opts = {
  trace_file : string option;
  metrics_file : string option;
  profile : bool;
  fake_clock : bool;
}

let obs_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Write a JSONL span trace of the run to $(docv) (one JSON \
                object per line; pipe through jq to inspect).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:
               "Enable the profiling registry and write the run's metric \
                deltas to $(docv) as JSON.")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:
               "Enable the profiling registry and print the metric deltas \
                to stderr when the run finishes.")
  in
  let fake_clock =
    Arg.(value & flag
         & info [ "fake-clock" ]
             ~doc:
               "Timestamp trace records with a deterministic counter clock \
                instead of CPU time, so same-seed runs produce byte-identical \
                trace files.")
  in
  Term.(
    const (fun trace_file metrics_file profile fake_clock ->
        { trace_file; metrics_file; profile; fake_clock })
    $ trace $ metrics $ profile $ fake_clock)

(* Run [f] under the observability options: build the trace sink, flip
   the global metrics registry on when requested, and emit the metric
   deltas (file and/or stderr) once [f] finishes — also on the error
   path, so a failed solve still leaves its trace and counters behind.
   [f] also receives the run's clock so every time source in the
   process (trace sink, solver budget guard, server uptime) reads the
   same instance — under --fake-clock, a second independent fake clock
   would silently desynchronize the timestamps. *)
let with_obs opts f =
  let module M = Stochobs.Metrics in
  let metrics_on = opts.profile || opts.metrics_file <> None in
  if metrics_on then M.set_enabled M.default true;
  let before = M.snapshot M.default in
  let finish () =
    if metrics_on then begin
      let delta =
        M.diff ~before ~after:(M.snapshot M.default)
        |> List.filter (fun (_, v) -> not (M.zero v))
      in
      (match opts.metrics_file with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Stochobs.Json.to_string (M.to_json delta));
              output_char oc '\n'));
      if opts.profile then Format.eprintf "%a@." M.pp delta
    end
  in
  let clock =
    if opts.fake_clock then Stochobs.Clock.fake () else Stochobs.Clock.cpu
  in
  Fun.protect ~finally:finish (fun () ->
      match opts.trace_file with
      | None -> f Stochobs.Trace.null clock
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              f
                (Stochobs.Trace.make ~clock (Stochobs.Writer.of_channel oc))
                clock))

(* ---------------------------- commands ---------------------------- *)

let sequence_cmd =
  let run dist trace fit hpc alpha beta gamma strategy m n disc_n seed count =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let s = resolve_strategy strategy ~m ~n ~disc_n ~seed in
    let seq = s.Strategy.build model d in
    Format.printf "distribution: %a@." Dist.pp d;
    Format.printf "cost model:   %a@." Cost_model.pp model;
    Format.printf "strategy:     %s@." s.Strategy.name;
    Format.printf "sequence:     %a@." (Sequence.pp_prefix count) seq;
    let exact = Expected_cost.exact model d seq in
    Format.printf "expected cost: %.6f (normalized %.4f)@." exact
      (Expected_cost.normalized model d ~cost:exact)
  in
  let count_arg =
    Arg.(value & opt int 10
         & info [ "count"; "k" ] ~docv:"K" ~doc:"Reservations to print.")
  in
  Cmd.v
    (Cmd.info "sequence" ~doc:"Compute and print a reservation sequence.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg $ strategy_arg $ m_arg $ n_mc_arg $ disc_n_arg
      $ seed_arg $ count_arg)

let evaluate_cmd =
  let run dist trace fit hpc alpha beta gamma strategy m n disc_n seed =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let s = resolve_strategy strategy ~m ~n ~disc_n ~seed in
    let rng = Randomness.Rng.create ~seed:(seed + 1) () in
    let v = Strategy.evaluate ~n ~rng model d s in
    Format.printf "%s on %s: normalized expected cost %.4f@." s.Strategy.name
      d.Dist.name v
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Monte-Carlo-evaluate a strategy's normalized expected cost.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg $ strategy_arg $ m_arg $ n_mc_arg $ disc_n_arg
      $ seed_arg)

let simulate_cmd =
  let run dist trace fit hpc alpha beta gamma strategy m n disc_n seed jobs =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let s = resolve_strategy strategy ~m ~n ~disc_n ~seed in
    let seq = s.Strategy.build model d in
    let rng = Randomness.Rng.create ~seed:(seed + 2) () in
    let report = Platform.Simulator.run ~jobs model d seq rng in
    Format.printf "%s on %s:@.%a@." s.Strategy.name d.Dist.name
      Platform.Simulator.pp_report report
  in
  let jobs_arg =
    Arg.(value & opt int 1000
         & info [ "jobs" ] ~docv:"J" ~doc:"Number of jobs to simulate.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Replay a strategy through the job-flow simulator.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg $ strategy_arg $ m_arg $ n_mc_arg $ disc_n_arg
      $ seed_arg $ jobs_arg)

let bounds_cmd =
  let run dist trace fit hpc alpha beta gamma =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let lo, hi = Stochastic_core.Bounds.search_interval model d in
    Format.printf "distribution: %a@." Dist.pp d;
    Format.printf "t1 search interval (Theorem 2): (%.6g, %.6g]@." lo hi;
    if not (Dist.is_bounded d) then begin
      Format.printf "A1 = %.6g@." (Stochastic_core.Bounds.a1 model d);
      Format.printf "A2 = %.6g (upper bound on the optimal cost)@."
        (Stochastic_core.Bounds.a2 model d)
    end
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the Theorem 2 search bounds.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg)

let cloud_cmd =
  let run dist trace fit ratio m n seed =
    let d = resolve_dist dist trace fit in
    let pricing =
      Platform.Cloud.make_pricing ~reserved_hourly:1.0 ~on_demand_hourly:ratio
    in
    let s = Strategy.brute_force ~m ~n ~seed () in
    let rng = Randomness.Rng.create ~seed:(seed + 3) () in
    let normalized =
      Strategy.evaluate ~n ~rng Cost_model.reservation_only d s
    in
    let v = Platform.Cloud.compare_strategies pricing d ~normalized_cost:normalized in
    Format.printf "distribution: %a@." Dist.pp d;
    Format.printf "brute-force normalized cost: %.4f, OD/RI price ratio: %.2f@."
      normalized ratio;
    Format.printf
      "reserved cost/job: %.4f, on-demand cost/job: %.4f, advantage: %.2fx@."
      v.Platform.Cloud.reserved_total v.Platform.Cloud.on_demand_total
      v.Platform.Cloud.advantage;
    Format.printf "verdict: use %s@."
      (if v.Platform.Cloud.use_reserved then "RESERVED instances"
       else "ON-DEMAND")
  in
  let ratio_arg =
    Arg.(value & opt float 4.0
         & info [ "price-ratio" ] ~docv:"R"
             ~doc:"On-demand / reserved price ratio (AWS-like default 4).")
  in
  Cmd.v
    (Cmd.info "cloud"
       ~doc:"Decide Reserved Instances vs On-Demand for a workload.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ ratio_arg $ m_arg $ n_mc_arg
      $ seed_arg)

let cluster_cmd =
  let run dist trace fit hpc alpha beta gamma strategy m n disc_n seed jobs
      nodes policy load nodes_min nodes_max scale_min scale_max failure_rate
      fault_model weibull_shape repair max_retries backoff ckpt_period
      ckpt_cost restart_cost obs_opts =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let s = resolve_strategy strategy ~m ~n ~disc_n ~seed in
    let policy =
      match Scheduler.Policy.of_string policy with
      | Some p -> p
      | None ->
          Printf.eprintf "unknown policy %S (use fcfs or easy)\n" policy;
          exit 2
    in
    let fault_model_for mtbf =
      match String.lowercase_ascii fault_model with
      | "exponential" | "exp" -> Scheduler.Faults.exponential ~mtbf
      | "weibull" -> Scheduler.Faults.weibull ~mtbf ~shape:weibull_shape
      | "spot" -> Scheduler.Faults.spot ~mtbf ()
      | other ->
          Printf.eprintf
            "unknown fault model %S (use exponential, weibull or spot)\n"
            other;
          exit 2
    in
    (* Reject a bad model name even at rate 0, like every other enum. *)
    ignore (fault_model_for infinity);
    let faults =
      if failure_rate <= 0.0 then None
      else
        Some
          (Scheduler.Faults.make ~seed:(seed + 6) ~mean_repair:repair
             (fault_model_for (1.0 /. failure_rate)))
    in
    let retry = Scheduler.Engine.make_retry ?max_retries ~backoff () in
    let recovery =
      if ckpt_period <= 0.0 then Stochastic_core.Attempt.Restart
      else
        Stochastic_core.Attempt.validate
          (Snapshot
             { period = ckpt_period; snapshot_cost = ckpt_cost; restore_cost = restart_cost })
        |> Result.map_error (fun (field, detail) ->
               Printf.sprintf "invalid %s: %s" field detail)
        |> usage_exit
    in
    let seq = s.Strategy.build model d in
    let arrival_rate =
      Scheduler.Workload.rate_for_load ~nodes_min ~nodes_max ~scale_min
        ~scale_max ~sequence:seq ~load ~cluster_nodes:nodes d
    in
    let spec =
      Scheduler.Workload.make_spec ~nodes_min ~nodes_max ~scale_min ~scale_max
        ~jobs ~arrival_rate ()
    in
    let rng = Randomness.Rng.create ~seed:(seed + 4) () in
    let workload =
      Scheduler.Workload.generate ~recovery spec d ~sequence:seq rng
    in
    with_obs obs_opts @@ fun obs _clock ->
    let result =
      Scheduler.Engine.run
        (Scheduler.Engine.make_config ~obs ?faults ~retry ~nodes ~policy ())
        workload
    in
    let summary = Scheduler.Metrics.summarize ~model result in
    Format.printf "distribution: %a@." Dist.pp d;
    Format.printf "cost model:   %a@." Cost_model.pp model;
    Format.printf "strategy:     %s, policy: %s@." s.Strategy.name
      (Scheduler.Policy.name policy);
    (match faults with
    | None -> ()
    | Some f ->
        Format.printf
          "faults:       %s, MTBF %.2f h/node, mean repair %.2f h, retries \
           %s, backoff %.2f h@."
          (Scheduler.Faults.model_name f)
          (Scheduler.Faults.mtbf f) repair
          (match max_retries with
          | None -> "unlimited"
          | Some r -> string_of_int r)
          backoff);
    (match recovery with
    | Restart -> ()
    | Snapshot { period; snapshot_cost; restore_cost } ->
        Format.printf
          "checkpoints:  every %.2f h of work, snapshot %.2f h, restore %.2f \
           h@."
          period snapshot_cost restore_cost);
    Format.printf "workload:     %d jobs, offered load %.2f (rate %.3f/h, \
                   %d-%d nodes/job)@."
      jobs
      (Scheduler.Workload.offered_load ~sequence:seq spec ~cluster_nodes:nodes
         d)
      arrival_rate nodes_min nodes_max;
    Format.printf "@[%a@]@." Scheduler.Metrics.pp_summary summary;
    let fit = Scheduler.Metrics.measured_fit (Scheduler.Metrics.wait_records result) in
    Format.printf
      "measured wait model: wait = %.4f * requested + %.4f h  (R^2 = %.3f)@."
      fit.Numerics.Regression.slope fit.Numerics.Regression.intercept
      fit.Numerics.Regression.r_squared;
    match Platform.Hpc_queue.cost_model_of_fit fit with
    | measured ->
        Format.printf "measured cost model: %a@." Cost_model.pp measured;
        let eval_rng = Randomness.Rng.create ~seed:(seed + 5) () in
        let samples = Dist.samples d eval_rng n in
        Array.sort compare samples;
        let score m = Strategy.evaluate_on m d ~sorted_samples:samples s in
        Format.printf
          "normalized E(cost) of %s: %.4f assumed model, %.4f measured model@."
          s.Strategy.name (score model) (score measured)
    | exception Invalid_argument _ ->
        Format.printf
          "measured cost model: unusable fit (no affine contention signal)@."
  in
  let jobs_arg =
    Arg.(value & opt int 500
         & info [ "jobs" ] ~docv:"J" ~doc:"Number of jobs to simulate.")
  in
  let nodes_arg =
    Arg.(value & opt int 64
         & info [ "nodes" ] ~docv:"P" ~doc:"Cluster node count.")
  in
  let policy_arg =
    Arg.(value & opt string "easy"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Queueing policy: fcfs or easy (EASY backfilling).")
  in
  let load_arg =
    Arg.(value & opt float 1.15
         & info [ "load" ] ~docv:"L"
             ~doc:"Offered load: arrival work rate over cluster capacity.")
  in
  let nodes_min_arg =
    Arg.(value & opt int 1
         & info [ "min-nodes" ] ~docv:"N" ~doc:"Smallest per-job node count.")
  in
  let nodes_max_arg =
    Arg.(value & opt int 8
         & info [ "max-nodes" ] ~docv:"N" ~doc:"Largest per-job node count.")
  in
  let scale_min_arg =
    Arg.(value & opt float 0.1
         & info [ "min-scale" ] ~docv:"C"
             ~doc:"Smallest job size-class factor (log-uniform).")
  in
  let scale_max_arg =
    Arg.(value & opt float 10.0
         & info [ "max-scale" ] ~docv:"C"
             ~doc:"Largest job size-class factor (log-uniform).")
  in
  let failure_rate_arg =
    Arg.(value & opt float 0.0
         & info [ "failure-rate" ] ~docv:"R"
             ~doc:
               "Per-node failures per hour (0 = perfectly reliable cluster).")
  in
  let fault_model_arg =
    Arg.(value & opt string "exponential"
         & info [ "fault-model" ] ~docv:"M"
             ~doc:
               "Failure interarrival model: exponential, weibull, or spot \
                (bursty spot-instance revocations).")
  in
  let weibull_shape_arg =
    Arg.(value & opt float 1.5
         & info [ "weibull-shape" ] ~docv:"K"
             ~doc:"Weibull hazard shape (>1 ageing, <1 infant mortality).")
  in
  let repair_arg =
    Arg.(value & opt float 0.1
         & info [ "repair" ] ~docv:"H"
             ~doc:"Mean node repair time in hours (exponential).")
  in
  let max_retries_arg =
    Arg.(value & opt (some int) None
         & info [ "max-retries" ] ~docv:"N"
             ~doc:
               "Failure-caused resubmissions allowed per job before it is \
                abandoned (default: unlimited).")
  in
  let backoff_arg =
    Arg.(value & opt float 0.0
         & info [ "backoff" ] ~docv:"H"
             ~doc:"Delay in hours before resubmitting a failure-killed job.")
  in
  let ckpt_period_arg =
    Arg.(value & opt float 0.0
         & info [ "ckpt-period" ] ~docv:"H"
             ~doc:
               "Hours of work between checkpoints (0 = no checkpointing; \
                scaled by each job's size class).")
  in
  let ckpt_cost_arg =
    Arg.(value & opt float 0.05
         & info [ "ckpt-cost" ] ~docv:"H"
             ~doc:"Time to write one checkpoint snapshot, in hours.")
  in
  let restart_cost_arg =
    Arg.(value & opt float 0.05
         & info [ "restart-cost" ] ~docv:"H"
             ~doc:"Time to restore from a snapshot, in hours.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Simulate many stochastic jobs contending for a cluster — \
          optionally with fault injection and checkpoint-aware recovery — \
          and measure the wait-time model that the NeuroHPC scenario \
          assumes.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg $ strategy_arg $ m_arg $ n_mc_arg $ disc_n_arg
      $ seed_arg $ jobs_arg $ nodes_arg $ policy_arg $ load_arg
      $ nodes_min_arg $ nodes_max_arg $ scale_min_arg $ scale_max_arg
      $ failure_rate_arg $ fault_model_arg $ weibull_shape_arg $ repair_arg
      $ max_retries_arg $ backoff_arg $ ckpt_period_arg $ ckpt_cost_arg
      $ restart_cost_arg $ obs_term)

(* --------------------- robust solving commands -------------------- *)

let check_cmd =
  let run dist trace fit hpc strict =
    let d = resolve_dist ~hpc dist trace fit in
    let report = Robust.Dist_check.run d in
    Format.printf "%a@." Robust.Dist_check.pp report;
    if not (Robust.Dist_check.is_valid report) then exit 4
    else if strict && Robust.Dist_check.warnings report <> [] then exit 3
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero (3) when the check emits warnings.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the numerical self-check on a distribution and print the \
          diagnostic report. Exits 4 on fatal inconsistencies.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ strict_arg)

(* Two-tier spot options for `solve`: --spot-price turns the mode on;
   the rest shape the regime. Kept in a record so the solve term stays
   readable. *)
type spot_opts = {
  spot_price : float option;
  spot_mtbf : float;
  spot_recovery : string;
  spot_ckpt_period : float;
  spot_ckpt_cost : float;
  spot_restore : float;
}

let spot_term =
  let price =
    Arg.(value & opt (some float) None
         & info [ "spot-price" ] ~docv:"R"
             ~doc:
               "Enable the two-tier spot/on-demand solve: spot capacity \
                costs $(docv) per on-demand hour (in (0, 1]) but is revoked \
                by a memoryless process (see $(b,--spot-mtbf)).")
  in
  let mtbf =
    Arg.(value & opt float 20.0
         & info [ "spot-mtbf" ] ~docv:"H"
             ~doc:
               "Mean time between spot revocations in hours (inf = never \
                revoked).")
  in
  let recovery =
    Arg.(value & opt string "checkpoint"
         & info [ "spot-recovery" ] ~docv:"MODE"
             ~doc:
               "Recovery discipline after a revocation or expiry: \
                'checkpoint' (periodic snapshots survive) or 'restart' \
                (from scratch, the base paper's semantics).")
  in
  let ckpt_period =
    Arg.(value & opt float 1.0
         & info [ "spot-ckpt-period" ] ~docv:"H"
             ~doc:"Hours of useful work between snapshots.")
  in
  let ckpt_cost =
    Arg.(value & opt float 0.05
         & info [ "spot-ckpt-cost" ] ~docv:"H"
             ~doc:"Hours to write one snapshot.")
  in
  let restore =
    Arg.(value & opt float 0.05
         & info [ "spot-restore" ] ~docv:"H"
             ~doc:"Hours to resume from the last snapshot.")
  in
  Term.(
    const (fun spot_price spot_mtbf spot_recovery spot_ckpt_period
               spot_ckpt_cost spot_restore ->
        {
          spot_price;
          spot_mtbf;
          spot_recovery;
          spot_ckpt_period;
          spot_ckpt_cost;
          spot_restore;
        })
    $ price $ mtbf $ recovery $ ckpt_period $ ckpt_cost $ restore)

let solve_cmd =
  let run dist trace fit hpc alpha beta gamma m n disc_n seed count strict
      no_validate exact quick max_seconds max_evals tiers spot_opts obs_opts =
    let d = resolve_dist ~hpc dist trace fit in
    let model = resolve_model hpc alpha beta gamma in
    let base =
      if quick then Robust.Solver.quick_budget
      else Robust.Solver.default_budget
    in
    let budget =
      {
        Robust.Solver.bf_candidates = m;
        mc_samples = n;
        dp_points = disc_n;
        max_seconds = Option.value max_seconds ~default:base.Robust.Solver.max_seconds;
        max_evaluations =
          Option.value max_evals ~default:base.Robust.Solver.max_evaluations;
      }
    in
    let tiers =
      match tiers with
      | None -> Robust.Solver.all_tiers
      | Some names -> usage_exit (Stochserve.Resolve.tiers_of_string names)
    in
    let check_strict sol =
      if strict && Robust.Solver.degraded sol then begin
        (match sol.Robust.Solver.diagnostics.Robust.Solver.rejected with
        | r :: _ ->
            Format.eprintf
              "strict mode: degraded to %s because %s was rejected (%s)@."
              (Robust.Solver.tier_name
                 sol.Robust.Solver.diagnostics.Robust.Solver.chosen)
              (Robust.Solver.tier_name r.Robust.Solver.tier)
              (Robust.Solver.error_to_string r.Robust.Solver.reason)
        | [] ->
            Format.eprintf
              "strict mode: degraded to %s (no rejection diagnostics)@."
              (Robust.Solver.tier_name
                 sol.Robust.Solver.diagnostics.Robust.Solver.chosen));
        exit 3
      end
    in
    with_obs obs_opts @@ fun obs clock ->
    match spot_opts.spot_price with
    | Some price_ratio -> (
        let recovery =
          match String.lowercase_ascii spot_opts.spot_recovery with
          | "restart" -> Stochastic_core.Spot_cost.Restart
          | "checkpoint" | "snapshot" ->
              Stochastic_core.Spot_cost.Snapshot
                {
                  period = spot_opts.spot_ckpt_period;
                  snapshot_cost = spot_opts.spot_ckpt_cost;
                  restore_cost = spot_opts.spot_restore;
                }
          | other ->
              Printf.eprintf
                "unknown spot recovery %S (use checkpoint or restart)\n" other;
              exit 2
        in
        match
          Robust.Solver.solve_spot ~obs ~clock ~budget ~tiers
            ~validate:(not no_validate) ~exact ~seed ~recovery ~price_ratio
            ~revocation_rate:(1.0 /. spot_opts.spot_mtbf) model d
        with
        | Error e ->
            Format.eprintf "spot solve failed: %a@." Robust.Solver.pp_error e;
            exit (Robust.Solver.exit_code e)
        | Ok sol ->
            let module Spot_cost = Stochastic_core.Spot_cost in
            Format.printf "distribution: %a@." Dist.pp d;
            Format.printf "cost model:   %a@." Cost_model.pp model;
            Format.printf "%a@." Robust.Solver.pp_diagnostics
              sol.Robust.Solver.base.Robust.Solver.diagnostics;
            let regime = sol.Robust.Solver.regime in
            Format.printf
              "spot regime:  price %.2f, revocation MTBF %.4g h, %s@."
              regime.Spot_cost.price_ratio
              (if regime.Spot_cost.revocation_rate > 0.0 then
                 1.0 /. regime.Spot_cost.revocation_rate
               else infinity)
              (match regime.Spot_cost.recovery with
              | Spot_cost.Restart -> "restart recovery"
              | Spot_cost.Snapshot { period; snapshot_cost; restore_cost } ->
                  Printf.sprintf
                    "snapshots every %g h (write %g h, restore %g h)" period
                    snapshot_cost restore_cost);
            let plan = sol.Robust.Solver.plan in
            let k = Array.length plan.Spot_cost.lengths in
            let shown = min count k in
            Format.printf "plan:         [";
            for i = 0 to shown - 1 do
              if i > 0 then Format.printf "; ";
              Format.printf "%.4g %s"
                plan.Spot_cost.lengths.(i)
                (Spot_cost.tier_name plan.Spot_cost.tiers.(i))
            done;
            if k > shown then Format.printf "; ...";
            Format.printf "] (%d/%d spot)@." (Spot_cost.spot_slots plan) k;
            Format.printf
              "expected cost: %.6f (on-demand floor %.6f, savings %.1f%%)@."
              sol.Robust.Solver.spot_cost sol.Robust.Solver.on_demand_cost
              (100.0 *. sol.Robust.Solver.savings);
            check_strict sol.Robust.Solver.base)
    | None -> (
    match
      Robust.Solver.solve ~obs ~clock ~budget ~tiers ~validate:(not no_validate)
        ~exact ~seed model d
    with
    | Error e ->
        Format.eprintf "solve failed: %a@." Robust.Solver.pp_error e;
        exit (Robust.Solver.exit_code e)
    | Ok sol ->
        Format.printf "distribution: %a@." Dist.pp d;
        Format.printf "cost model:   %a@." Cost_model.pp model;
        Format.printf "%a@." Robust.Solver.pp_diagnostics
          sol.Robust.Solver.diagnostics;
        let shown = min count (Array.length sol.Robust.Solver.head) in
        Format.printf "sequence:     [";
        for i = 0 to shown - 1 do
          if i > 0 then Format.printf "; ";
          Format.printf "%.4g" sol.Robust.Solver.head.(i)
        done;
        if Array.length sol.Robust.Solver.head > shown then
          Format.printf "; ...";
        Format.printf "]@.";
        Format.printf "expected cost: %.6f (normalized %.4f)@."
          sol.Robust.Solver.cost sol.Robust.Solver.normalized;
        check_strict sol)
  in
  let count_arg =
    Arg.(value & opt int 10
         & info [ "count"; "k" ] ~docv:"K" ~doc:"Reservations to print.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:
               "Exit non-zero (3) when the answer did not come from the \
                first cascade tier.")
  in
  let no_validate_arg =
    Arg.(value & flag
         & info [ "no-validate" ]
             ~doc:"Skip the distribution self-check before solving.")
  in
  let exact_arg =
    Arg.(value & flag
         & info [ "exact" ]
             ~doc:
               "Rank brute-force candidates by the deterministic Eq. (4) \
                series instead of Monte-Carlo.")
  in
  let quick_budget_arg =
    Arg.(value & flag
         & info [ "quick-budget" ]
             ~doc:"Start from the reduced smoke-test budget.")
  in
  let max_seconds_arg =
    Arg.(value & opt (some float) None
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Wall-clock guard for the whole solve.")
  in
  let max_evals_arg =
    Arg.(value & opt (some int) None
         & info [ "max-evaluations" ] ~docv:"E"
             ~doc:"Total evaluation budget across all tiers.")
  in
  let tiers_arg =
    Arg.(value & opt (some string) None
         & info [ "tiers" ] ~docv:"T1,T2,..."
             ~doc:
               "Comma-separated cascade (subset/reorder of brute-force, dp, \
                mean-doubling).")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve through the validated, budgeted fallback cascade \
          (brute-force, then equal-probability DP, then mean-doubling) and \
          print the cascade diagnostics. With $(b,--spot-price) the solved \
          head is additionally tier-assigned across revocable spot and \
          reliable on-demand capacity (checkpoint-aware). Exit codes: 0 ok, \
          3 strict-mode degradation, 4 invalid distribution, 5 \
          non-convergent, 6 budget exhausted, 7 invalid parameter.")
    Term.(
      const run $ dist_arg $ input_trace_arg $ fit_arg $ hpc_arg $ alpha_arg
      $ beta_arg $ gamma_arg $ m_arg $ n_mc_arg $ disc_n_arg $ seed_arg
      $ count_arg $ strict_arg $ no_validate_arg $ exact_arg
      $ quick_budget_arg $ max_seconds_arg $ max_evals_arg $ tiers_arg
      $ spot_term $ obs_term)

let serve_cmd =
  let run socket capacity grid seed full_budget max_seconds max_evals persist
      deadline obs_opts =
    let base =
      if full_budget then Robust.Solver.default_budget
      else Robust.Solver.quick_budget
    in
    let budget =
      {
        base with
        Robust.Solver.max_seconds =
          Option.value max_seconds ~default:base.Robust.Solver.max_seconds;
        max_evaluations =
          Option.value max_evals ~default:base.Robust.Solver.max_evaluations;
      }
    in
    let config =
      {
        Stochserve.Server.default_config with
        Stochserve.Server.cache_capacity = capacity;
        grid;
        budget;
        seed;
        deadline;
      }
    in
    let config = usage_exit (Stochserve.Server.check_config config) in
    with_obs obs_opts @@ fun obs clock ->
    (* Writing to a hung-up client must surface as EPIPE (caught per
       client), not kill the daemon with an unhandled SIGPIPE. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    (* SIGTERM/SIGINT request a graceful stop: finish the request in
       flight, flush the journal, remove the socket, exit. The flag is
       observed between requests; a blocking accept is interrupted
       (EINTR) and re-checks it. *)
    let stop_requested = ref false in
    let request_stop = Sys.Signal_handle (fun _ -> stop_requested := true) in
    (try
       Sys.set_signal Sys.sigterm request_stop;
       Sys.set_signal Sys.sigint request_stop
     with Invalid_argument _ | Sys_error _ -> ());
    let journal =
      Option.map
        (fun path ->
          let j = Stochserve.Journal.open_ path in
          let s = Stochserve.Journal.stats j in
          if
            s.Stochserve.Journal.recovered_records > 0
            || s.Stochserve.Journal.skipped_corrupt > 0
          then
            Printf.eprintf
              "stochastic serve: journal %s: recovered %d record(s), skipped \
               %d corrupt\n%!"
              path s.Stochserve.Journal.recovered_records
              s.Stochserve.Journal.skipped_corrupt;
          j)
        persist
    in
    (* A daemon always records its instruments: the metrics request
       kind serves them live as a Prometheus exposition, which is
       pointless over a disabled registry. (One-shot commands keep the
       opt-in --profile/--metrics gating.) *)
    Stochobs.Metrics.set_enabled Stochobs.Metrics.default true;
    let server =
      Stochserve.Server.create ~obs ~clock ~metrics:Stochobs.Metrics.default
        ?journal config
    in
    (* Hard watchdog on top of the server's cooperative deadline: the
       solver checks its budget between candidates, so a single
       pathological evaluation could overstay. SIGALRM at ~2x the
       deadline converts that into a typed code-6 response. Unix lives
       here in bin/, so the library stays deterministic. *)
    let exception Watchdog_timeout in
    let handle_request line =
      match deadline with
      | None -> Stochserve.Server.handle_line server line
      | Some d ->
          let fuse = (2.0 *. d) +. 0.5 in
          let arm v =
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_interval = 0.0; it_value = v })
          in
          let old =
            Sys.signal Sys.sigalrm
              (Sys.Signal_handle (fun _ -> raise Watchdog_timeout))
          in
          let disarm () =
            arm 0.0;
            Sys.set_signal Sys.sigalrm old
          in
          arm fuse;
          (match Stochserve.Server.handle_line server line with
          | resp ->
              disarm ();
              resp
          | exception Watchdog_timeout ->
              disarm ();
              let e =
                {
                  Stochserve.Protocol.code = 6;
                  label = "budget-exhausted";
                  detail =
                    Printf.sprintf
                      "hard watchdog fired after %.3gs (deadline %gs)" fuse d;
                }
              in
              (Some (Stochserve.Protocol.error_response ~id:None e), false))
    in
    let finish () = Stochserve.Server.close server in
    match socket with
    | None ->
        let recv () =
          if !stop_requested then None else In_channel.input_line stdin
        in
        let send line =
          print_string line;
          print_newline ();
          flush stdout
        in
        Fun.protect ~finally:finish (fun () ->
            try
              let rec loop () =
                match recv () with
                | None -> ()
                | Some line ->
                    let resp, stop = handle_request line in
                    Option.iter send resp;
                    if not stop then loop ()
              in
              loop ()
            with Sys_error _ ->
              (* An interrupted stdin read during shutdown. *)
              ())
    | Some path ->
        (* Sequential accept loop: one client at a time, each pumped
           until it hangs up. A shutdown request or a SIGTERM/SIGINT
           ends the daemon; the socket file is removed on the way out,
           and a stale one from an unclean death is removed on the way
           in. *)
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        let stopped = ref false in
        (* Retry EINTR: any signal delivery interrupts accept; only a
           stop request should end the loop. *)
        let rec accept_retry () =
          if !stop_requested then None
          else
            match Unix.accept sock with
            | conn -> Some conn
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry ()
        in
        Fun.protect
          ~finally:(fun () ->
            finish ();
            (try Unix.close sock with Unix.Unix_error _ -> ());
            try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
          (fun () ->
            while not (!stopped || !stop_requested) do
              match accept_retry () with
              | None -> ()
              | Some (conn, _) ->
                  let ic = Unix.in_channel_of_descr conn in
                  let oc = Unix.out_channel_of_descr conn in
                  (try
                     let rec pump () =
                       match In_channel.input_line ic with
                       | None -> ()
                       | Some line ->
                           let resp, stop = handle_request line in
                           Option.iter
                             (fun r ->
                               output_string oc r;
                               output_char oc '\n';
                               flush oc)
                             resp;
                           if stop then stopped := true
                           else if not !stop_requested then pump ()
                     in
                     pump ()
                   with Sys_error _ | Unix.Unix_error _ ->
                     (* A dropped client must not take the daemon
                        down. *)
                     ());
                  (try Unix.close conn with Unix.Unix_error _ -> ())
            done)
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:
               "Listen on a Unix-domain socket at $(docv) (one client at a \
                time) instead of reading stdin and writing stdout.")
  in
  let capacity_arg =
    Arg.(value & opt int 1024
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Solved-strategy LRU cache capacity (entries).")
  in
  let grid_arg =
    Arg.(value & opt float Stochserve.Quantize.default_grid
         & info [ "grid" ] ~docv:"G"
             ~doc:
               "Relative quantization grid for cache keys: parameters within \
                a factor of (1+$(docv)) land in the same bucket, so \
                near-identical tenant fits share one solved entry.")
  in
  let full_budget_arg =
    Arg.(value & flag
         & info [ "full-budget" ]
             ~doc:
               "Base per-solve budget: start from the paper-scale default \
                instead of the daemon's interactive quick budget. Requests \
                can still override fields per solve.")
  in
  let max_seconds_arg =
    Arg.(value & opt (some float) None
         & info [ "max-seconds" ] ~docv:"S"
             ~doc:"Base wall-clock guard per solve.")
  in
  let max_evals_arg =
    Arg.(value & opt (some int) None
         & info [ "max-evaluations" ] ~docv:"E"
             ~doc:"Base evaluation budget per solve.")
  in
  let persist_arg =
    Arg.(value & opt (some string) None
         & info [ "persist" ] ~docv:"PATH"
             ~doc:
               "Journal successful solves to $(docv) (checksummed \
                append-only records) and warm the cache from it on \
                startup. Recovery skips and counts corrupt or torn \
                records; it never refuses to start.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"S"
             ~doc:
               "Per-request deadline in seconds: caps each solve's time \
                budget, arms a hard SIGALRM watchdog at ~2x $(docv), and \
                drives overload shedding (consecutive near-deadline \
                requests switch cache misses to degraded mean-doubling \
                answers until pressure drains).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the strategy-as-a-service daemon: a JSONL request loop \
          (kinds: solve, fit, stats, metrics, shutdown) over stdin/stdout or a \
          Unix-domain socket, with a solved-strategy LRU cache keyed by \
          quantized distribution parameters. Error responses carry the \
          solver exit codes (2 usage, 4-7 solver taxonomy). With \
          $(b,--persist) the cache survives restarts and crashes; with \
          $(b,--deadline) slow requests are bounded and overload sheds to \
          degraded answers. SIGTERM/SIGINT stop the daemon gracefully \
          (journal flushed, socket removed).")
    Term.(
      const run $ socket_arg $ capacity_arg $ grid_arg $ seed_arg
      $ full_budget_arg $ max_seconds_arg $ max_evals_arg $ persist_arg
      $ deadline_arg $ obs_term)

(* One command per registry entry: the experiment at paper (or, with
   --quick, reduced) parameters, printed as bench prints its section.
   A failed sanity check exits 1. *)

let quick_arg =
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Reduced parameters (fast smoke run).")

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose"; "v" ]
           ~doc:"Log experiment progress to stderr as cells complete.")

let experiment_cmd (e : Experiments.Registry.t) =
  let exec quick verbose obs_opts =
    let log =
      if verbose then
        Stochobs.Log.make ~min_level:Stochobs.Log.Debug
          (Stochobs.Writer.of_channel stderr)
      else Stochobs.Log.null
    in
    let passed =
      with_obs obs_opts @@ fun obs _clock ->
      Stochobs.Trace.with_span obs
        ~attrs:
          [
            ("experiment", Stochobs.Trace.Str e.name);
            ("quick", Stochobs.Trace.Bool quick);
          ]
        "experiments.run"
      @@ fun () ->
      let o = e.run ~quick ~log in
      print_string (Experiments.Registry.render e o);
      Experiments.Registry.passed o
    in
    if not passed then exit 1
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const exec $ quick_arg $ verbose_arg $ obs_term)

let main =
  let doc = "Reservation strategies for stochastic jobs (IPDPS 2019)" in
  Cmd.group
    (Cmd.info "stochastic-reservations" ~version:"1.0.0" ~doc)
    ([
      sequence_cmd;
      solve_cmd;
      serve_cmd;
      check_cmd;
      evaluate_cmd;
      simulate_cmd;
      cluster_cmd;
      bounds_cmd;
      cloud_cmd;
    ]
    @ List.map experiment_cmd Experiments.Registry.all)

let () = exit (Cmd.eval main)
