(* Tests for the synthetic neuroscience trace generator and CSV IO. *)

module T = Platform.Traces

let test_known_applications () =
  Alcotest.(check string) "vbmqa name" "VBMQA" T.vbmqa.T.app_name;
  Alcotest.(check (float 1e-9)) "vbmqa mu" 7.1128 T.vbmqa.T.mu;
  Alcotest.(check (float 1e-9)) "vbmqa sigma" 0.2039 T.vbmqa.T.sigma;
  Alcotest.(check string) "fmriqa name" "fMRIQA" T.fmriqa.T.app_name

let test_distribution_scale () =
  (* The paper: VBMQA mean ~ 1253.37 s ~ 0.348 h. *)
  let d = T.distribution T.vbmqa in
  Alcotest.(check (float 1.0)) "mean in seconds" 1253.37
    d.Distributions.Dist.mean;
  let dh = T.distribution_hours T.vbmqa in
  Alcotest.(check (float 0.001)) "mean in hours" 0.3482
    dh.Distributions.Dist.mean

let test_generate () =
  let rng = Randomness.Rng.create ~seed:7 () in
  let trace = T.generate ~runs:5000 T.vbmqa rng in
  Alcotest.(check int) "runs" 5000 (Array.length trace);
  Array.iter
    (fun t -> if t <= 0.0 then Alcotest.failf "non-positive runtime %g" t)
    trace;
  let m = Numerics.Stats.mean trace in
  Alcotest.(check bool) "sample mean near 1253s" true
    (Float.abs (m -. 1253.37) < 30.0)

let test_csv_roundtrip () =
  let rng = Randomness.Rng.create ~seed:8 () in
  let trace = T.generate ~runs:200 T.fmriqa rng in
  let path = Filename.temp_file "trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.save_csv path trace;
      let back = T.load_csv path in
      Alcotest.(check int) "length preserved" 200 (Array.length back);
      Array.iteri
        (fun i t ->
          if Float.abs (t -. trace.(i)) > 1e-5 then
            Alcotest.failf "element %d drifted: %g vs %g" i t trace.(i))
        back)

let test_load_csv_malformed () =
  let path = Filename.temp_file "bad" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "runtime_seconds\n12.5\nnot-a-number\n";
      close_out oc;
      Alcotest.(check bool) "malformed rejected" true
        (try ignore (T.load_csv path); false with Failure _ -> true))

(* Rescaling to hours divides every quantile by 3600 and leaves the
   CDF level of a rescaled point unchanged. *)
let prop_hours_rescale =
  QCheck.Test.make ~count:200 ~name:"distribution_hours = seconds / 3600"
    QCheck.(pair bool (float_range 0.01 0.99))
    (fun (vbm, p) ->
      let app = if vbm then T.vbmqa else T.fmriqa in
      let s = T.distribution app and h = T.distribution_hours app in
      let q = s.Distributions.Dist.quantile p in
      Float.abs (h.Distributions.Dist.quantile p -. (q /. 3600.0))
      <= 1e-9 *. (q /. 3600.0)
      && Float.abs (h.Distributions.Dist.cdf (q /. 3600.0) -. p) <= 1e-9)

(* The Fig. 1 pipeline: trace -> LogNormal MLE -> law. *)
let test_pipeline () =
  let rng = Randomness.Rng.create ~seed:9 () in
  let trace = T.generate ~runs:5000 T.vbmqa rng in
  let fit = Distributions.Fitting.lognormal_mle trace in
  let d = Distributions.Fitting.to_dist fit in
  Alcotest.(check (float 0.02)) "pipeline recovers mu" 7.1128
    fit.Distributions.Fitting.mu;
  Alcotest.(check (float 0.01)) "pipeline recovers sigma" 0.2039
    fit.Distributions.Fitting.sigma;
  Alcotest.(check bool) "fitted distribution usable" true
    (d.Distributions.Dist.mean > 1000.0 && d.Distributions.Dist.mean < 1500.0)

let () =
  Alcotest.run "traces"
    [
      ( "unit",
        [
          Alcotest.test_case "known applications" `Quick test_known_applications;
          Alcotest.test_case "distribution scale" `Quick test_distribution_scale;
          Alcotest.test_case "generate" `Quick test_generate;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "malformed csv" `Quick test_load_csv_malformed;
          Alcotest.test_case "pipeline" `Quick test_pipeline;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_hours_rescale ]);
    ]
