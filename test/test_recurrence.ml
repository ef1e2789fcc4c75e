(* Tests for the Eq. (11) recurrence. *)

module R = Stochastic_core.Recurrence
module C = Stochastic_core.Cost_model
module S = Stochastic_core.Sequence
module Dist = Distributions.Dist

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let test_exponential_closed_form () =
  (* For Exp(lambda) and RESERVATIONONLY, Eq. (11) reduces to
     t_i = e^(lambda (t_(i-1) - t_(i-2))) / lambda (Prop. 2 proof). *)
  let lambda = 2.0 in
  let d = Distributions.Exponential.make ~rate:lambda in
  let m = C.reservation_only in
  let t1 = 0.4 and t0 = 0.0 in
  let t2 = R.next m d ~t_prev2:t0 ~t_prev1:t1 in
  rel_close "t2 = e^(lambda t1)/lambda" (exp (lambda *. t1) /. lambda) t2;
  let t3 = R.next m d ~t_prev2:t1 ~t_prev1:t2 in
  rel_close "t3 closed form" (exp (lambda *. (t2 -. t1)) /. lambda) t3

let test_general_model_term () =
  (* Check the beta/gamma terms of Eq. (11) on Exp(1):
     t2 = (1 - F(0))/f(t1) + (b/a)((1 - F(t1))/f(t1) - t1) - g/a
        = e^t1 + (b/a)(1 - t1) - g/a. *)
  let d = Distributions.Exponential.default in
  let m = C.make ~alpha:2.0 ~beta:1.0 ~gamma:0.5 () in
  let t1 = 0.8 in
  rel_close "general Eq. (11)"
    (exp t1 +. (0.5 *. (1.0 -. t1)) -. 0.25)
    (R.next m d ~t_prev2:0.0 ~t_prev1:t1)

let test_generate_valid () =
  let d = Distributions.Exponential.default in
  match R.generate C.reservation_only d ~t1:0.75 with
  | Error _ ->
      Alcotest.fail "expected valid sequence"
  | Ok ts ->
      Alcotest.(check bool) "covers the 1 - 1e-9 quantile" true
        (ts.(Array.length ts - 1) >= -.log 1e-9 -. 1.0);
      Array.iteri
        (fun i t ->
          if i > 0 && t <= ts.(i - 1) then
            Alcotest.fail "prefix not strictly increasing")
        ts

let test_generate_invalid_t1 () =
  let d = Distributions.Exponential.default in
  (* The median start collapses for Exp (Table 3 reports "-" there). *)
  (match R.generate C.reservation_only d ~t1:(d.Dist.quantile 0.5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "median start expected to be invalid for Exp");
  (* t1 outside the support. *)
  (match R.generate C.reservation_only d ~t1:(-1.0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative t1 must be rejected");
  match R.generate C.reservation_only d ~t1:nan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nan t1 must be rejected"

let test_generate_bounded_support () =
  (* Uniform: only t1 ~ b yields a valid sequence and it is just (b)
     (Theorem 4). *)
  let d = Distributions.Uniform_dist.default in
  (match R.generate C.reservation_only d ~t1:20.0 with
  | Ok ts -> Alcotest.(check (array (float 1e-9))) "single (b)" [| 20.0 |] ts
  | Error _ ->
      Alcotest.fail "t1 = b should be valid");
  match R.generate C.reservation_only d ~t1:15.0 with
  | Error _ -> ()
  | Ok ts ->
      Alcotest.failf "t1 = 15 should collapse, got length %d"
        (Array.length ts)

let test_density_underflow_typed_stop () =
  (* A law whose density underflows to exactly 0 past t = 5 while
     ~ e^-5 of the mass is still uncovered: Eq. (11) divides by
     f t_(i-1), so generate must stop with the typed Density_underflow
     instead of propagating inf/nan. *)
  let exp1 = Distributions.Exponential.default in
  let d =
    {
      exp1 with
      Dist.name = "Exp(1), tail density underflowed";
      pdf = (fun t -> if t > 5.0 then 0.0 else exp1.Dist.pdf t);
    }
  in
  (match R.generate C.reservation_only d ~t1:0.75 with
  | Error (R.Density_underflow { t; survival }) ->
      Alcotest.(check bool) "stop is past the underflow point" true (t > 5.0);
      Alcotest.(check bool) "uncovered survival mass reported" true
        (survival > 0.0 && survival < 0.01)
  | Error _ ->
      Alcotest.fail "expected Density_underflow"
  | Ok _ -> Alcotest.fail "underflowing density must not generate Ok");
  (* The sanitized infinite sequence must survive the same law by
     switching to doubling — strictly increasing, no inf/nan. *)
  let s = R.sequence C.reservation_only d ~t1:0.75 in
  let prefix = S.take 25 s in
  List.iter
    (fun v ->
      if not (Float.is_finite v) then
        Alcotest.fail "sanitized sequence emitted a non-finite value")
    prefix;
  Alcotest.(check bool) "sanitized sequence still increases" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 24) prefix) (List.tl prefix))

let test_sequence_sanitized () =
  let d = Distributions.Exponential.default in
  let s = R.sequence C.reservation_only d ~t1:0.75 in
  let prefix = S.take 30 s in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sanitized recurrence increases" true
    (increasing prefix);
  Alcotest.(check int) "sequence is infinite" 30 (List.length prefix)

let test_sequence_matches_generate_prefix () =
  let d = Distributions.Lognormal.default in
  let m = C.reservation_only in
  let t1 = 30.0 in
  match R.generate m d ~t1 with
  | Error _ ->
      Alcotest.fail "lognormal t1=30 should be valid"
  | Ok ts ->
      let s = S.take (Array.length ts) (R.sequence m d ~t1) in
      List.iteri
        (fun i v -> rel_close (Printf.sprintf "element %d" i) ts.(i) v)
        s

let prop_first_element_is_t1 =
  QCheck.Test.make ~count:200 ~name:"sequence starts at t1"
    QCheck.(float_range 0.1 3.0)
    (fun t1 ->
      let d = Distributions.Exponential.default in
      match S.take 1 (R.sequence C.reservation_only d ~t1) with
      | [ h ] -> Float.abs (h -. t1) < 1e-12
      | _ -> false)

let prop_optimal_t1_has_lowest_exact_cost =
  QCheck.Test.make ~count:50 ~name:"perturbing t1 away from optimum costs more"
    QCheck.(float_range 0.05 0.6)
    (fun delta ->
      (* The Exp(1) optimum from the dedicated solver beats both
         perturbed starts (exact evaluation). *)
      let d = Distributions.Exponential.default in
      let m = C.reservation_only in
      let sol = Stochastic_core.Exponential_opt.solve () in
      let s1 = sol.Stochastic_core.Exponential_opt.s1 in
      let cost t1 =
        Stochastic_core.Expected_cost.exact m d (R.sequence m d ~t1)
      in
      let c_opt = cost s1 in
      c_opt <= cost (s1 +. delta) +. 1e-9
      && c_opt <= cost (Float.max 0.01 (s1 -. delta)) +. 1e-9)

let () =
  Alcotest.run "recurrence"
    [
      ( "unit",
        [
          Alcotest.test_case "exponential closed form" `Quick
            test_exponential_closed_form;
          Alcotest.test_case "general model term" `Quick test_general_model_term;
          Alcotest.test_case "generate valid" `Quick test_generate_valid;
          Alcotest.test_case "generate invalid t1" `Quick test_generate_invalid_t1;
          Alcotest.test_case "bounded support" `Quick test_generate_bounded_support;
          Alcotest.test_case "density underflow typed stop" `Quick
            test_density_underflow_typed_stop;
          Alcotest.test_case "sequence sanitized" `Quick test_sequence_sanitized;
          Alcotest.test_case "sequence matches generate" `Quick
            test_sequence_matches_generate_prefix;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_first_element_is_t1;
          QCheck_alcotest.to_alcotest prop_optimal_t1_has_lowest_exact_cost;
        ] );
    ]
