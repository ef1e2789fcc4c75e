(* Tests for descriptive statistics. *)

module S = Numerics.Stats

let close ?(tol = 1e-10) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (S.mean xs);
  close "population std" 2.0 (S.std ~ddof:0 xs);
  close "sample std" (sqrt (32.0 /. 7.0)) (S.std xs)

let test_variance_errors () =
  Alcotest.check_raises "single sample, ddof=1"
    (Invalid_argument "Stats.variance: not enough samples") (fun () ->
      ignore (S.std [| 1.0 |]))

(* Type-7 quantiles of an unsorted sample, through the exported
   sorted-input reader. *)
let quantile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  S.quantiles_sorted sorted p

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q0 = min" 1.0 (quantile xs 0.0);
  close "q1 = max" 4.0 (quantile xs 1.0);
  close "median interpolates" 2.5 (quantile xs 0.5);
  close "q0.25 (type 7)" 1.75 (quantile xs 0.25);
  close "single element" 7.0 (quantile [| 7.0 |] 0.3);
  (* Order independence: quantile sorts internally. *)
  close "unsorted input" 2.5 (quantile [| 4.0; 1.0; 3.0; 2.0 |] 0.5);
  close "median helper" 2.5 (S.median xs)

let test_nearest_rank () =
  let xs = [| 3.0; 1.0; 2.0; 5.0; 4.0 |] in
  (* rank = ceil(0.5 * 5) = 3 -> third smallest. *)
  close "median of five" 3.0 (S.quantile_nearest_rank xs 0.5);
  close "p = 0 clamps to the minimum" 1.0 (S.quantile_nearest_rank xs 0.0);
  close "p = 1 is the maximum" 5.0 (S.quantile_nearest_rank xs 1.0);
  (* The p95-stretch regression shape: 20 observations 1..20, rank =
     ceil(0.95 * 20) = 19, so exactly the 19th order statistic — no
     interpolation toward 20. *)
  let ys = Array.init 20 (fun i -> float_of_int (i + 1)) in
  close "p95 of 1..20 is the 19th value" 19.0
    (S.quantile_nearest_rank_sorted ys 0.95);
  close "interpolated p95 differs" 19.05 (S.quantiles_sorted ys 0.95);
  (* Nearest-rank always returns an observed value, even on a gappy
     two-point sample where type 7 would invent one. *)
  close "no invented values" 100.0
    (S.quantile_nearest_rank [| 0.0; 100.0 |] 0.95);
  close "single element" 7.0 (S.quantile_nearest_rank [| 7.0 |] 0.3);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.quantile_nearest_rank: empty sample") (fun () ->
      ignore (S.quantile_nearest_rank [||] 0.5));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.quantile_nearest_rank: p must be in [0, 1]")
    (fun () -> ignore (S.quantile_nearest_rank xs 1.5))

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.2; 0.9; 1.0 |] in
  let h = S.histogram ~bins:2 xs in
  Alcotest.(check (array (float 1e-12))) "bounds span [min, max]"
    [| 0.0; 0.5; 1.0 |] h.S.bounds;
  Alcotest.(check int) "bin count" 2 (Array.length h.S.counts);
  Alcotest.(check int) "total count preserved" 5
    (Array.fold_left ( + ) 0 h.S.counts);
  Alcotest.(check int) "first bin holds the low cluster" 3 h.S.counts.(0);
  (* Value equal to the max lands in the last bin. *)
  Alcotest.(check int) "last bin holds the high cluster" 2 h.S.counts.(1)

let prop_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"quantile is monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      quantile a lo <= quantile a hi +. 1e-12)

let prop_quantile_bounds =
  QCheck.Test.make ~count:300 ~name:"quantile stays within [min, max]"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let mn = Array.fold_left Float.min infinity a
      and mx = Array.fold_left Float.max neg_infinity a in
      let q = quantile a p in
      q >= mn -. 1e-12 && q <= mx +. 1e-12)

let test_nearest_rank_ranks () =
  Alcotest.(check int) "ceil (0.5 * 5)" 3 (S.nearest_rank 5 0.5);
  Alcotest.(check int) "ceil (0.99 * 100)" 99 (S.nearest_rank 100 0.99);
  Alcotest.(check int) "ceil (0.991 * 100)" 100 (S.nearest_rank 100 0.991);
  Alcotest.(check int) "p = 0 clamps to rank 1" 1 (S.nearest_rank 7 0.0);
  Alcotest.(check int) "p = 1 is rank n" 7 (S.nearest_rank 7 1.0);
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Stats.quantile_nearest_rank: empty sample") (fun () ->
      ignore (S.nearest_rank 0 0.5));
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Stats.quantile_nearest_rank: p must be in [0, 1]")
    (fun () -> ignore (S.nearest_rank 3 (-0.1)))

let sample = QCheck.(list_of_size Gen.(int_range 2 100) (float_range (-1e3) 1e3))

let prop_nearest_rank_order_statistic =
  QCheck.Test.make ~count:500
    ~name:"nearest rank reads order statistic nearest_rank n p"
    QCheck.(pair sample (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let sorted = Array.copy a in
      Array.sort Float.compare sorted;
      let expected = sorted.(S.nearest_rank (Array.length a) p - 1) in
      Int64.equal
        (Int64.bits_of_float (S.quantile_nearest_rank a p))
        (Int64.bits_of_float expected)
      && Int64.equal
           (Int64.bits_of_float (S.quantile_nearest_rank_sorted sorted p))
           (Int64.bits_of_float expected))

let prop_median_is_half_quantile =
  QCheck.Test.make ~count:300 ~name:"median is the type-7 0.5 quantile" sample
    (fun xs ->
      let a = Array.of_list xs in
      Int64.equal
        (Int64.bits_of_float (S.median a))
        (Int64.bits_of_float (quantile a 0.5)))

let prop_std_affine =
  QCheck.Test.make ~count:300 ~name:"std is shift invariant and scales by |k|"
    QCheck.(triple sample (float_range (-1e3) 1e3) (float_range (-10.0) 10.0))
    (fun (xs, c, k) ->
      let a = Array.of_list xs in
      let sd = S.std a in
      let tol = 1e-9 *. (1.0 +. Float.abs c +. sd) in
      Float.abs (S.std (Array.map (fun x -> x +. c) a) -. sd) <= tol
      && Float.abs (S.std (Array.map (fun x -> k *. x) a) -. (Float.abs k *. sd))
         <= 1e-9 *. (1.0 +. (Float.abs k *. sd)))

let prop_histogram_counts =
  QCheck.Test.make ~count:300
    ~name:"histogram: every sample counted, extremes in the end bins"
    QCheck.(pair sample (int_range 1 30))
    (fun (xs, bins) ->
      let a = Array.of_list xs in
      let h = S.histogram ~bins a in
      let mn = Array.fold_left Float.min infinity a
      and mx = Array.fold_left Float.max neg_infinity a in
      (* A constant sample has one occupied bin; QCheck's floats make
         one vanishingly rare, but it is not an error. *)
      (not (mx > mn))
      || Array.length h.S.bounds = bins + 1
      && Array.fold_left ( + ) 0 h.S.counts = Array.length a
      && Int64.equal (Int64.bits_of_float h.S.bounds.(0)) (Int64.bits_of_float mn)
      && h.S.counts.(0) >= 1
      && h.S.counts.(bins - 1) >= 1
      && Float.abs (h.S.bounds.(bins) -. mx) <= 1e-9 *. (1.0 +. Float.abs mx))

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "variance errors" `Quick test_variance_errors;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "nearest-rank quantile" `Quick test_nearest_rank;
          Alcotest.test_case "nearest_rank ranks" `Quick test_nearest_rank_ranks;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
          QCheck_alcotest.to_alcotest prop_quantile_bounds;
          QCheck_alcotest.to_alcotest prop_nearest_rank_order_statistic;
          QCheck_alcotest.to_alcotest prop_median_is_half_quantile;
          QCheck_alcotest.to_alcotest prop_std_affine;
          QCheck_alcotest.to_alcotest prop_histogram_counts;
        ] );
    ]
