(* Unit and property tests for compensated summation. *)

let check_float = Alcotest.(check (float 1e-12))

let test_empty () = check_float "empty accumulator" 0.0 (Numerics.Kahan.sum (Numerics.Kahan.create ()))

let test_simple_sum () =
  let acc = Numerics.Kahan.create () in
  List.iter (Numerics.Kahan.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "1+2+3+4" 10.0 (Numerics.Kahan.sum acc)

let test_catastrophic_cancellation () =
  (* 1 + 1e100 - 1e100 = 1 exactly under Neumaier compensation; naive
     summation returns 0. *)
  let acc = Numerics.Kahan.create () in
  List.iter (Numerics.Kahan.add acc) [ 1.0; 1e100; -1e100 ];
  check_float "Neumaier survives big-then-cancel" 1.0 (Numerics.Kahan.sum acc)

let test_many_small () =
  (* Sum 10^6 copies of 0.1: naive float summation drifts by ~1e-8;
     compensated must be exact to ulp-level. *)
  let acc = Numerics.Kahan.create () in
  for _ = 1 to 1_000_000 do
    Numerics.Kahan.add acc 0.1
  done;
  Alcotest.(check (float 1e-9)) "10^6 * 0.1" 100_000.0 (Numerics.Kahan.sum acc)

let test_sum_array () =
  check_float "sum_array" 6.0 (Numerics.Kahan.sum_array [| 1.0; 2.0; 3.0 |])

let test_mean () =
  check_float "mean_array" 2.0 (Numerics.Kahan.mean_array [| 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "empty mean raises"
    (Invalid_argument "Kahan.mean_array: empty array") (fun () ->
      ignore (Numerics.Kahan.mean_array [||]))

(* Property: compensated sum of shuffled input equals (to tight
   tolerance) the sum of the sorted input — order independence. *)
let prop_order_independence =
  QCheck.Test.make ~count:200 ~name:"kahan sum is order independent"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Array.of_list xs in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let s1 = Numerics.Kahan.sum_array a in
      let s2 = Numerics.Kahan.sum_array sorted in
      Float.abs (s1 -. s2) <= 1e-6 *. (1.0 +. Float.abs s1))

let prop_matches_int_sum =
  QCheck.Test.make ~count:200 ~name:"kahan sum of integers is exact"
    QCheck.(list_of_size Gen.(int_range 0 500) (int_range (-1000) 1000))
    (fun xs ->
      let expected = List.fold_left ( + ) 0 xs in
      let got =
        Numerics.Kahan.sum_array (Array.of_list (List.map float_of_int xs))
      in
      (* stochlint: allow FLOAT_EQ — small-int sums are exactly representable, equality is the property *)
      got = float_of_int expected)

let bits = Int64.bits_of_float

let floats = QCheck.(list_of_size Gen.(int_range 1 200) (float_range (-1e6) 1e6))

let prop_parts_sum =
  QCheck.Test.make ~count:200 ~name:"the two parts add up to sum, bit for bit"
    floats
    (fun xs ->
      let acc = Numerics.Kahan.create () in
      List.iter (Numerics.Kahan.add acc) xs;
      let s, c = Numerics.Kahan.parts acc in
      Int64.equal (bits (s +. c)) (bits (Numerics.Kahan.sum acc)))

let prop_sum_array_is_fold =
  QCheck.Test.make ~count:200
    ~name:"sum_array = an accumulator fed in order, bit for bit"
    floats
    (fun xs ->
      let acc = Numerics.Kahan.create () in
      List.iter (Numerics.Kahan.add acc) xs;
      Int64.equal
        (bits (Numerics.Kahan.sum_array (Array.of_list xs)))
        (bits (Numerics.Kahan.sum acc)))

let prop_mean_within_range =
  QCheck.Test.make ~count:200 ~name:"mean_array lies within [min, max]" floats
    (fun xs ->
      let m = Numerics.Kahan.mean_array (Array.of_list xs) in
      let mn = List.fold_left Float.min infinity xs
      and mx = List.fold_left Float.max neg_infinity xs in
      let slack = 1e-12 *. Float.max (Float.abs mn) (Float.abs mx) in
      m >= mn -. slack && m <= mx +. slack)

let () =
  Alcotest.run "kahan"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "simple sum" `Quick test_simple_sum;
          Alcotest.test_case "cancellation" `Quick test_catastrophic_cancellation;
          Alcotest.test_case "many small" `Quick test_many_small;
          Alcotest.test_case "sum_array" `Quick test_sum_array;
          Alcotest.test_case "mean" `Quick test_mean;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_order_independence;
          QCheck_alcotest.to_alcotest prop_matches_int_sum;
          QCheck_alcotest.to_alcotest prop_parts_sum;
          QCheck_alcotest.to_alcotest prop_sum_array_is_fold;
          QCheck_alcotest.to_alcotest prop_mean_within_range;
        ] );
    ]
