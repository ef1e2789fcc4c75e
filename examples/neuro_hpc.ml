(* NeuroHPC scenario end to end (Sect. 5.3): from raw application
   traces and scheduler logs to a reservation recommendation.

   Pipeline, exactly as the paper describes it:
     1. collect execution-time traces of a neuroscience application
        (synthetic here; the CSV round-trip shows where real traces
        would plug in);
     2. fit a LogNormal law to the traces (Fig. 1);
     3. fit the affine queue-wait function from scheduler logs
        (Fig. 2) and build the STOCHASTIC cost model from it;
     4. compute reservation sequences with every heuristic and compare
        their expected turnaround times;
     5. replay the winner through the job-flow simulator for
        operational statistics.

   Run with: dune exec examples/neuro_hpc.exe *)

module Dist = Distributions.Dist
module Strategy = Stochastic_core.Strategy
module Sequence = Stochastic_core.Sequence

let () =
  let rng = Randomness.Rng.create ~seed:2026 () in

  (* --- 1. Traces -------------------------------------------------- *)
  let trace =
    Platform.Traces.generate ~runs:5000 Platform.Traces.vbmqa rng
  in
  let csv = Filename.temp_file "vbmqa" ".csv" in
  Platform.Traces.save_csv csv trace;
  let trace = Platform.Traces.load_csv csv in
  Sys.remove csv;
  Format.printf "Loaded %d VBMQA runs (mean %.0f s, std %.0f s)@."
    (Array.length trace)
    (Numerics.Stats.mean trace)
    (Numerics.Stats.std trace);

  (* --- 2. Fit the execution-time distribution --------------------- *)
  let fit = Distributions.Fitting.lognormal_mle trace in
  Format.printf
    "LogNormal fit: mu=%.4f sigma=%.4f (paper: 7.1128 / 0.2039), KS=%.4f@."
    fit.Distributions.Fitting.mu fit.Distributions.Fitting.sigma
    fit.Distributions.Fitting.ks;
  (* Work in hours from here on, like the paper. *)
  let d =
    Distributions.Lognormal.make
      ~mu:(fit.Distributions.Fitting.mu -. log 3600.0)
      ~sigma:fit.Distributions.Fitting.sigma
  in

  (* --- 3. Fit the wait-time model from scheduler logs -------------- *)
  let log = Platform.Hpc_queue.synthetic_log ~jobs:20_000 rng in
  let wait_fit = Platform.Hpc_queue.fit (Platform.Hpc_queue.bin_log log) in
  let model = Platform.Hpc_queue.cost_model_of_fit wait_fit in
  Format.printf
    "Wait-time fit: wait = %.3f * requested + %.3f h (R^2 = %.3f)@."
    wait_fit.Numerics.Regression.slope wait_fit.Numerics.Regression.intercept
    wait_fit.Numerics.Regression.r_squared;

  (* --- 4. Compare strategies --------------------------------------- *)
  let samples = Dist.samples d rng 2000 in
  Numerics.Stats.sort samples;
  let roster =
    [
      Strategy.brute_force ~m:3000 ~n:1000 ~seed:5 ();
      Strategy.mean_by_mean;
      Strategy.mean_stdev;
      Strategy.mean_doubling;
      Strategy.median_by_median;
      Strategy.equal_time;
      Strategy.equal_probability;
    ]
  in
  Format.printf "@.Expected turnaround, normalized by the omniscient \
                 scheduler:@.";
  let scored =
    List.map
      (fun s ->
        let v = Strategy.evaluate_on model d ~sorted_samples:samples s in
        Format.printf "  %-18s %.3f@." s.Strategy.name v;
        (s, v))
      roster
  in
  let best, best_v =
    match scored with
    | [] -> failwith "empty strategy roster"
    | first :: rest ->
        List.fold_left
          (fun (bs, bv) (s, v) -> if v < bv then (s, v) else (bs, bv))
          first rest
  in
  Format.printf "Winner: %s (%.3f)@." best.Strategy.name best_v;

  (* --- 5. Operational replay --------------------------------------- *)
  let seq = best.Strategy.build model d in
  Format.printf "@.Recommended request schedule (hours): %a@."
    (Sequence.pp_prefix 5) seq;
  let report = Platform.Simulator.run ~jobs:5000 model d seq rng in
  Format.printf "%a@." Platform.Simulator.pp_report report
