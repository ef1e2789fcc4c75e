(* Tests for reservation sequences: validation, Eq. (2) costs and the
   sanitize combinator. *)

module S = Stochastic_core.Sequence
module E = Stochastic_core.Expected_cost
module C = Stochastic_core.Cost_model
module Dist = Distributions.Dist

let close ?(tol = 1e-10) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_of_list_validation () =
  ignore (S.of_list [ 1.0; 2.0; 3.0 ] : S.t);
  Alcotest.(check bool) "non increasing rejected" true
    (try ignore (S.of_list [ 1.0; 1.0 ] : S.t); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non positive rejected" true
    (try ignore (S.of_list [ 0.0; 1.0 ] : S.t); false
     with Invalid_argument _ -> true)

let test_cost_of_run_eq2 () =
  (* Worked example of Eq. (2): S = (2, 5, 9), alpha=1, beta=0.5,
     gamma=0.1, job t = 6 -> succeeds at k = 3.
     C = (2 + 1 + 0.1) + (5 + 2.5 + 0.1) + (9 + 3 + 0.1). *)
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.1 () in
  let s = S.of_list [ 2.0; 5.0; 9.0 ] in
  let k, cost = S.cost_of_run m s 6.0 in
  Alcotest.(check int) "k = 3" 3 k;
  close "Eq. (2) cost" (3.1 +. 7.6 +. 12.1) cost;
  (* First reservation succeeds. *)
  let k, cost = S.cost_of_run m s 1.5 in
  Alcotest.(check int) "k = 1" 1 k;
  close "single reservation" (2.0 +. 0.75 +. 0.1) cost;
  (* Job exactly at a boundary belongs to that reservation. *)
  let k, _ = S.cost_of_run m s 5.0 in
  Alcotest.(check int) "boundary inclusive" 2 k

let test_cost_not_covered () =
  let m = C.reservation_only in
  let s = S.of_list [ 1.0; 2.0 ] in
  Alcotest.(check bool) "raises Not_covered" true
    (try ignore (S.cost_of_run m s 5.0); false with S.Not_covered _ -> true)

let test_mean_cost_matches_individual_runs () =
  let m = C.make ~alpha:0.95 ~beta:1.0 ~gamma:1.05 () in
  let s = S.of_list [ 1.0; 3.0; 8.0; 20.0 ] in
  let samples = [| 0.2; 0.9; 1.0; 2.5; 3.0; 7.9; 15.0; 20.0 |] in
  let expected =
    Array.fold_left (fun acc t -> acc +. snd (S.cost_of_run m s t)) 0.0 samples
    /. float_of_int (Array.length samples)
  in
  close "batch = mean of individual" expected (E.mean_cost_presampled m ~sorted_samples:samples s)

let test_mean_cost_requires_samples () =
  Alcotest.(check bool) "empty rejected" true
    (try ignore (E.mean_cost_presampled C.reservation_only ~sorted_samples:[||] (S.of_list [ 1.0 ])); false
     with Invalid_argument _ -> true)

let test_take_and_prefix () =
  let s = S.of_list [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (list (float 0.0))) "take" [ 1.0; 2.0 ] (S.take 2 s);
  let p = S.prefix_until (fun x -> x >= 2.0) s in
  Alcotest.(check (array (float 0.0))) "prefix_until includes stop" [| 1.0; 2.0 |] p;
  Alcotest.(check bool) "is_strictly_increasing" true
    (S.is_strictly_increasing 3 s)

let test_sanitize_unbounded () =
  (* A raw sequence that stalls: sanitize must switch to doubling. *)
  let raw = List.to_seq [ 1.0; 2.0; 1.5; 100.0 ] in
  let clean = S.sanitize ~support:(Dist.Unbounded 0.0) raw in
  let prefix = S.take 5 clean in
  Alcotest.(check (list (float 1e-9))) "doubling after stall"
    [ 1.0; 2.0; 4.0; 8.0; 16.0 ] prefix

let test_sanitize_unbounded_nan () =
  let raw = List.to_seq [ 3.0; nan ] in
  let clean = S.sanitize ~support:(Dist.Unbounded 0.0) raw in
  Alcotest.(check (list (float 1e-9))) "nan triggers doubling" [ 3.0; 6.0; 12.0 ]
    (S.take 3 clean)

let test_sanitize_bounded () =
  let support = Dist.Bounded (0.0, 10.0) in
  (* Finite raw sequence that never reaches b: completed with b. *)
  let clean = S.sanitize ~support (List.to_seq [ 2.0; 5.0 ]) in
  Alcotest.(check (list (float 1e-9))) "completed with b" [ 2.0; 5.0; 10.0 ]
    (List.of_seq clean);
  (* Values beyond b are snapped to b and terminate the sequence. *)
  let clean = S.sanitize ~support (List.to_seq [ 4.0; 11.0; 12.0 ]) in
  Alcotest.(check (list (float 1e-9))) "clamped at b" [ 4.0; 10.0 ]
    (List.of_seq clean);
  (* Values numerically at b are emitted as exactly b. *)
  let clean = S.sanitize ~support (List.to_seq [ 9.9999999999 ]) in
  Alcotest.(check (list (float 0.0))) "near-b becomes b" [ 10.0 ]
    (List.of_seq clean)

let test_sanitize_infinite_lazy () =
  (* Sanitizing an infinite sequence must not loop: only the consumed
     prefix is forced. *)
  let naturals = Seq.ints 1 |> Seq.map float_of_int in
  let clean = S.sanitize ~support:(Dist.Unbounded 0.0) naturals in
  Alcotest.(check (list (float 0.0))) "lazy prefix" [ 1.0; 2.0; 3.0 ]
    (S.take 3 clean)

(* Property: sanitize output is always strictly increasing, regardless
   of the garbage fed in. *)
let raw_seq_gen =
  QCheck.Gen.(list_size (int_range 0 30) (float_range (-5.0) 50.0))

let prop_sanitize_increasing_unbounded =
  QCheck.Test.make ~count:500 ~name:"sanitize (unbounded) strictly increases"
    (QCheck.make raw_seq_gen) (fun raw ->
      let clean =
        S.sanitize ~support:(Dist.Unbounded 0.0) (List.to_seq raw)
      in
      let prefix = S.take 40 clean in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      List.length prefix = 40 && increasing prefix
      && List.for_all (fun x -> x > 0.0 && Float.is_finite x) prefix)

let prop_sanitize_bounded_ends_with_b =
  QCheck.Test.make ~count:500 ~name:"sanitize (bounded) terminates with b"
    (QCheck.make raw_seq_gen) (fun raw ->
      let b = 25.0 in
      let clean =
        S.sanitize ~support:(Dist.Bounded (0.0, b)) (List.to_seq raw)
      in
      let all = S.take 100 clean in
      let rec increasing = function
        | a :: (y :: _ as rest) -> a < y && increasing rest
        | _ -> true
      in
      all <> []
      && List.length all < 100 (* terminates *)
      && increasing all
      && Float.equal (List.nth all (List.length all - 1)) b)

let prop_batch_eval_matches_pointwise =
  QCheck.Test.make ~count:200 ~name:"mean_cost_presampled = mean of cost_of_run"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15) (float_range 0.1 30.0))
        (list_of_size Gen.(int_range 1 50) (float_range 0.0 20.0)))
    (fun (raw, samples) ->
      let seq =
        S.sanitize ~support:(Dist.Unbounded 0.0) (List.to_seq raw)
      in
      let samples = Array.of_list samples in
      Array.sort compare samples;
      let m = C.make ~alpha:1.3 ~beta:0.7 ~gamma:0.2 () in
      let batch = E.mean_cost_presampled m ~sorted_samples:samples seq in
      let pointwise =
        Array.fold_left
          (fun acc t -> acc +. snd (S.cost_of_run m seq t))
          0.0 samples
        /. float_of_int (Array.length samples)
      in
      Float.abs (batch -. pointwise) <= 1e-9 *. (1.0 +. Float.abs batch))

let () =
  Alcotest.run "sequence"
    [
      ( "unit",
        [
          Alcotest.test_case "of_list validation" `Quick test_of_list_validation;
          Alcotest.test_case "Eq. (2) cost" `Quick test_cost_of_run_eq2;
          Alcotest.test_case "not covered" `Quick test_cost_not_covered;
          Alcotest.test_case "batch vs individual" `Quick
            test_mean_cost_matches_individual_runs;
          Alcotest.test_case "empty samples" `Quick test_mean_cost_requires_samples;
          Alcotest.test_case "take/prefix" `Quick test_take_and_prefix;
          Alcotest.test_case "sanitize unbounded" `Quick test_sanitize_unbounded;
          Alcotest.test_case "sanitize nan" `Quick test_sanitize_unbounded_nan;
          Alcotest.test_case "sanitize bounded" `Quick test_sanitize_bounded;
          Alcotest.test_case "sanitize lazy" `Quick test_sanitize_infinite_lazy;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_sanitize_increasing_unbounded;
          QCheck_alcotest.to_alcotest prop_sanitize_bounded_ends_with_b;
          QCheck_alcotest.to_alcotest prop_batch_eval_matches_pointwise;
        ] );
    ]
