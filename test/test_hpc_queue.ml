(* Tests for the synthetic HPC scheduler-log model and wait-time fit. *)

module H = Platform.Hpc_queue

let close ?(tol = 1e-9) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_synthetic_log_shape () =
  let rng = Randomness.Rng.create ~seed:1 () in
  let log = H.synthetic_log ~jobs:2000 rng in
  Alcotest.(check int) "job count" 2000 (Array.length log);
  Array.iter
    (fun r ->
      if r.H.requested <= 0.0 || r.H.requested > 12.0 then
        Alcotest.failf "requested out of range: %g" r.H.requested;
      if r.H.wait < 0.0 then Alcotest.failf "negative wait: %g" r.H.wait)
    log

(* Requested runtimes are log-uniform on (0.25, 12) hours: both ends are
   reached and the median sits at the geometric mean sqrt 3. *)
let test_synthetic_log_requested_range () =
  let rng = Randomness.Rng.create ~seed:6 () in
  let req = Array.map (fun r -> r.H.requested) (H.synthetic_log ~jobs:4000 rng) in
  Array.sort compare req;
  let n = Array.length req in
  Alcotest.(check bool) "above 0.25 h" true (req.(0) > 0.25);
  Alcotest.(check bool) "below 12 h" true (req.(n - 1) < 12.0);
  Alcotest.(check bool) "short requests reached" true (req.(0) < 0.3);
  Alcotest.(check bool) "long requests reached" true (req.(n - 1) > 11.0);
  Alcotest.(check (float 0.15)) "median at the geometric mean" (sqrt 3.0)
    req.(n / 2)

let test_noiseless_log_is_affine () =
  let rng = Randomness.Rng.create ~seed:2 () in
  let log = H.synthetic_log ~jobs:500 ~alpha:0.8 ~gamma:2.0 ~noise:0.0 rng in
  Array.iter
    (fun r -> close "wait = 0.8 r + 2" ((0.8 *. r.H.requested) +. 2.0) r.H.wait)
    log

let test_bin_log () =
  let rng = Randomness.Rng.create ~seed:3 () in
  let log = H.synthetic_log ~jobs:2000 rng in
  let b = H.bin_log ~groups:20 log in
  Alcotest.(check int) "20 groups" 20 (Array.length b.H.centers);
  (* Group centers must be sorted (grouping is by requested time). *)
  Array.iteri
    (fun i c ->
      if i > 0 && c < b.H.centers.(i - 1) then
        Alcotest.fail "group centers not sorted")
    b.H.centers;
  Alcotest.(check bool) "fewer jobs than groups rejected" true
    (try ignore (H.bin_log ~groups:10 (Array.sub log 0 5)); false
     with Invalid_argument _ -> true)

let test_fit_recovers_ground_truth () =
  let rng = Randomness.Rng.create ~seed:4 () in
  let log = H.synthetic_log ~jobs:20_000 ~alpha:0.95 ~gamma:1.05 rng in
  let f = H.fit (H.bin_log ~groups:20 log) in
  Alcotest.(check (float 0.05)) "alpha recovered" 0.95
    f.Numerics.Regression.slope;
  Alcotest.(check (float 0.15)) "gamma recovered" 1.05
    f.Numerics.Regression.intercept

let test_cost_model_of_fit () =
  let rng = Randomness.Rng.create ~seed:5 () in
  let log = H.synthetic_log ~jobs:5000 rng in
  let f = H.fit (H.bin_log log) in
  let m = H.cost_model_of_fit f in
  Alcotest.(check bool) "alpha positive" true
    (m.Stochastic_core.Cost_model.alpha > 0.0);
  close "beta defaults to 1" 1.0 m.Stochastic_core.Cost_model.beta;
  Alcotest.(check bool) "gamma nonnegative" true
    (m.Stochastic_core.Cost_model.gamma >= 0.0)

let test_turnaround () =
  let m = Stochastic_core.Cost_model.neuro_hpc in
  (* Failed reservation: wait + full slot. *)
  close "failed slot"
    ((0.95 *. 2.0) +. 1.05 +. 2.0)
    (H.turnaround m ~requested:2.0 ~actual:3.0);
  (* Successful: wait + actual time. *)
  close "successful slot"
    ((0.95 *. 2.0) +. 1.05 +. 1.5)
    (H.turnaround m ~requested:2.0 ~actual:1.5)

let test_degenerate_inputs_rejected () =
  let record requested wait = { H.requested; wait } in
  let good i = record (float_of_int (i + 1)) 1.0 in
  let rejects name log =
    Alcotest.(check bool) name true
      (try
         ignore (H.bin_log ~groups:2 log);
         false
       with Invalid_argument _ -> true)
  in
  rejects "NaN requested"
    (Array.init 20 (fun i -> if i = 7 then record Float.nan 1.0 else good i));
  rejects "negative requested"
    (Array.init 20 (fun i -> if i = 3 then record (-2.0) 1.0 else good i));
  rejects "infinite requested"
    (Array.init 20 (fun i -> if i = 11 then record infinity 1.0 else good i));
  rejects "NaN wait"
    (Array.init 20 (fun i -> if i = 5 then record 1.0 Float.nan else good i));
  rejects "negative wait"
    (Array.init 20 (fun i -> if i = 9 then record 1.0 (-0.5) else good i))

let test_all_equal_requests_rejected () =
  (* A flat log used to fit to (NaN, NaN) silently; it must raise. *)
  let flat = Array.make 40 { H.requested = 2.0; wait = 1.0 } in
  Alcotest.(check bool) "all-equal requests rejected with a message" true
    (try
       ignore (H.fit (H.bin_log ~groups:4 flat));
       false
     with Invalid_argument msg ->
       (* The diagnostic must name the degeneracy, not just NaN. *)
       String.length msg > 0 && not (String.equal msg "nan"))

let prop_wait_grows_with_requested =
  QCheck.Test.make ~count:100
    ~name:"binned mean waits grow with requested runtime (noiseless)"
    QCheck.(pair (float_range 0.1 2.0) (float_range 0.0 3.0))
    (fun (alpha, gamma) ->
      let rng = Randomness.Rng.create ~seed:6 () in
      let log = H.synthetic_log ~jobs:1000 ~alpha ~gamma ~noise:0.0 rng in
      let b = H.bin_log ~groups:10 log in
      let ok = ref true in
      Array.iteri
        (fun i w ->
          if i > 0 && w < b.H.mean_waits.(i - 1) -. 1e-9 then ok := false)
        b.H.mean_waits;
      !ok)

let () =
  Alcotest.run "hpc_queue"
    [
      ( "unit",
        [
          Alcotest.test_case "synthetic log shape" `Quick test_synthetic_log_shape;
          Alcotest.test_case "requested runtime range" `Quick
            test_synthetic_log_requested_range;
          Alcotest.test_case "noiseless affine" `Quick test_noiseless_log_is_affine;
          Alcotest.test_case "bin_log" `Quick test_bin_log;
          Alcotest.test_case "fit recovers truth" `Quick
            test_fit_recovers_ground_truth;
          Alcotest.test_case "cost_model_of_fit" `Quick test_cost_model_of_fit;
          Alcotest.test_case "turnaround" `Quick test_turnaround;
          Alcotest.test_case "degenerate records rejected" `Quick
            test_degenerate_inputs_rejected;
          Alcotest.test_case "flat log rejected" `Quick
            test_all_equal_requests_rejected;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_wait_grows_with_requested ] );
    ]
