(* Tests for descriptive statistics. *)

module S = Numerics.Stats

let close ?(tol = 1e-10) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (S.mean xs);
  close "population variance" 4.0 (S.variance ~ddof:0 xs);
  close "sample variance" (32.0 /. 7.0) (S.variance xs);
  close "std" (sqrt (32.0 /. 7.0)) (S.std xs)

let test_variance_errors () =
  Alcotest.check_raises "single sample, ddof=1"
    (Invalid_argument "Stats.variance: not enough samples") (fun () ->
      ignore (S.variance [| 1.0 |]))

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q0 = min" 1.0 (S.quantile xs 0.0);
  close "q1 = max" 4.0 (S.quantile xs 1.0);
  close "median interpolates" 2.5 (S.quantile xs 0.5);
  close "q0.25 (type 7)" 1.75 (S.quantile xs 0.25);
  close "single element" 7.0 (S.quantile [| 7.0 |] 0.3);
  (* Order independence: quantile sorts internally. *)
  close "unsorted input" 2.5 (S.quantile [| 4.0; 1.0; 3.0; 2.0 |] 0.5);
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

let test_min_max () =
  let mn, mx = S.min_max [| 3.0; -1.0; 7.0; 0.0 |] in
  close "min" (-1.0) mn;
  close "max" 7.0 mx

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.2; 0.9; 1.0 |] in
  let h = S.histogram ~bins:2 xs in
  Alcotest.(check int) "bin count" 2 (Array.length h.S.counts);
  Alcotest.(check int) "total count preserved" 5
    (Array.fold_left ( + ) 0 h.S.counts);
  Alcotest.(check int) "first bin holds the low cluster" 3 h.S.counts.(0);
  (* Value equal to the max lands in the last bin. *)
  Alcotest.(check int) "last bin holds the high cluster" 2 h.S.counts.(1)

let test_online () =
  let o = S.Online.create () in
  List.iter (S.Online.push o) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (S.Online.count o);
  close "online mean" 5.0 (S.Online.mean o);
  close "online variance" (32.0 /. 7.0) (S.Online.variance o);
  close "stderr" (sqrt (32.0 /. 7.0 /. 8.0)) (S.Online.stderr o)

let prop_online_matches_batch =
  QCheck.Test.make ~count:300 ~name:"online mean/variance match batch"
    QCheck.(list_of_size Gen.(int_range 2 200) (float_range (-1e3) 1e3))
    (fun xs ->
      let a = Array.of_list xs in
      let o = S.Online.create () in
      Array.iter (S.Online.push o) a;
      Float.abs (S.Online.mean o -. S.mean a) <= 1e-8 *. (1.0 +. Float.abs (S.mean a))
      && Float.abs (S.Online.variance o -. S.variance a)
         <= 1e-6 *. (1.0 +. S.variance a))

let prop_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"quantile is monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (xs, (p1, p2)) ->
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      S.quantile a lo <= S.quantile a hi +. 1e-12)

let prop_quantile_bounds =
  QCheck.Test.make ~count:300 ~name:"quantile stays within [min, max]"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_range (-100.0) 100.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let mn, mx = S.min_max a in
      let q = S.quantile a p in
      q >= mn -. 1e-12 && q <= mx +. 1e-12)

(* The serve daemon's rolling p99 gauge selects instead of sorting:
   the sort-based nearest rank is the oracle, bit for bit, over
   windows of 1..128 latencies drawn with many ties (and the odd NaN
   or infinity). *)
let sorted_p99 w n =
  let sorted = Array.sub w 0 n in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let latency_window =
  QCheck.(
    pair (int_range 1 128)
      (array_of_size (Gen.return 128)
         (make
            Gen.(
              frequency
                [
                  (4, oneofl [ 0.0; 1e-6; 2.5e-5; 2.5e-5; 1e-3 ]);
                  (4, float_bound_inclusive 1e-3);
                  (1, oneofl [ Float.nan; Float.infinity ]);
                ]))))

let prop_nearest_rank_upper_p99 =
  QCheck.Test.make ~count:2000
    ~name:"p99 by selection equals the sorted window, bit for bit"
    latency_window
    (fun (n, w) ->
      Int64.equal
        (Int64.bits_of_float (S.quantile_nearest_rank_upper ~len:n w 0.99))
        (Int64.bits_of_float (sorted_p99 w n)))

let prop_nearest_rank_upper_any_p =
  QCheck.Test.make ~count:500
    ~name:"nearest rank by selection equals the sort at any p"
    QCheck.(pair latency_window (float_range 0.0 1.0))
    (fun ((n, w), p) ->
      Int64.equal
        (Int64.bits_of_float (S.quantile_nearest_rank_upper ~len:n w p))
        (Int64.bits_of_float (S.quantile_nearest_rank (Array.sub w 0 n) p)))

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "variance errors" `Quick test_variance_errors;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "nearest-rank quantile" `Quick test_nearest_rank;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "online" `Quick test_online;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_online_matches_batch;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
          QCheck_alcotest.to_alcotest prop_quantile_bounds;
          QCheck_alcotest.to_alcotest prop_nearest_rank_upper_p99;
          QCheck_alcotest.to_alcotest prop_nearest_rank_upper_any_p;
        ] );
    ]
