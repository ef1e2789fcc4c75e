(* Tests for the Proposition 2 exponential solver. *)

module E = Stochastic_core.Exponential_opt
module S = Stochastic_core.Sequence
module C = Stochastic_core.Cost_model

(* The Exp(1) reservation sequence the generic Eq. (11) machinery
   drives from the constant's first reservation. *)
let exp1_sequence () =
  Stochastic_core.Recurrence.sequence C.reservation_only
    Distributions.Exponential.default ~t1:(E.solve ()).E.s1

(* The objective the constant minimises, as the oracle computes it. *)
let expected_cost_exp1 = Recurrence_oracle.expected_cost_exp1

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let test_solution_in_paper_basin () =
  let sol = E.solve () in
  (* The paper reports s1 ~ 0.74219 ("about three quarters of the
     mean"); the objective basin is extremely flat, so accept a small
     neighbourhood. *)
  Alcotest.(check bool) "s1 ~ 3/4" true (sol.E.s1 > 0.70 && sol.E.s1 < 0.80);
  rel_close "E1" 2.3645 sol.E.e1 ~tol:1e-3

let test_objective_shape () =
  let sol = E.solve () in
  let e s1 = expected_cost_exp1 ~s1 in
  Alcotest.(check bool) "optimum beats 0.3" true (sol.E.e1 <= e 0.3);
  Alcotest.(check bool) "optimum beats 1.5" true (sol.E.e1 <= e 1.5);
  Alcotest.(check bool) "invalid s1 rejected" true
    (* stochlint: allow FLOAT_EQ — infinity is the documented rejection sentinel *)
    (e (-1.0) = infinity && e 0.0 = infinity && e nan = infinity)

let test_objective_matches_series_formula () =
  (* Where the raw recurrence stays valid (s1 slightly above the
     optimum), the cost must equal s1 + 1 + sum e^-s_i. *)
  let s1 = 0.80 in
  let acc = ref (s1 +. 1.0 +. exp (-.s1)) in
  let prev2 = ref 0.0 and prev1 = ref s1 in
  for _ = 1 to 50 do
    let s = exp (!prev1 -. !prev2) in
    if Float.is_finite s && s > !prev1 then begin
      acc := !acc +. exp (-.s);
      prev2 := !prev1;
      prev1 := s
    end
  done;
  (* The generic evaluator truncates the series at survival 1e-16, so
     agreement is to ~1e-6, not machine precision. *)
  rel_close "series formula" !acc (expected_cost_exp1 ~s1) ~tol:1e-5

let test_scaling () =
  let sol = E.solve () in
  rel_close "Exp(4) cost = E1/4" (sol.E.e1 /. 4.0) (E.expected_cost ~rate:4.0)

let test_sequence_increasing_and_infinite () =
  let s = S.take 50 (exp1_sequence ()) in
  Alcotest.(check int) "infinite" 50 (List.length s);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing s);
  (* Proposition 2: on Exp(1), Eq. (11) is s_i = exp (s_(i-1) -
     s_(i-2)) with s_0 = 0, while the raw recurrence stays on the
     optimal trajectory. *)
  let rec prop2 prev2 prev1 k = function
    | s :: rest when k > 0 ->
        rel_close (Printf.sprintf "Prop. 2 step %d" (6 - k)) (exp (prev1 -. prev2)) s
          ~tol:1e-6;
        prop2 prev1 s (k - 1) rest
    | _ -> ()
  in
  match s with
  | s1 :: rest -> prop2 0.0 s1 5 rest
  | [] -> Alcotest.fail "empty sequence"

let test_validation () =
  Alcotest.(check bool) "expected_cost rate <= 0 rejected" true
    (try ignore (E.expected_cost ~rate:(-2.0)); false
     with Invalid_argument _ -> true)

let test_consistent_with_generic_machinery () =
  (* The constant and the generic exact evaluator agree on the cost of
     the optimal sequence. *)
  let sol = E.solve () in
  let generic =
    Stochastic_core.Expected_cost.exact C.reservation_only
      Distributions.Exponential.default (exp1_sequence ())
  in
  rel_close "generic evaluation of optimal sequence" sol.E.e1 generic ~tol:1e-6

let prop_scaled_cost =
  QCheck.Test.make ~count:100 ~name:"cost scales as 1/lambda"
    QCheck.(float_range 0.1 50.0)
    (fun rate ->
      let sol = E.solve () in
      Float.abs (E.expected_cost ~rate -. (sol.E.e1 /. rate)) <= 1e-9)

let () =
  Alcotest.run "exponential_opt"
    [
      ( "unit",
        [
          Alcotest.test_case "paper basin" `Quick test_solution_in_paper_basin;
          Alcotest.test_case "objective shape" `Quick test_objective_shape;
          Alcotest.test_case "series formula" `Quick
            test_objective_matches_series_formula;
          Alcotest.test_case "scaling" `Quick test_scaling;
          Alcotest.test_case "sequence shape" `Quick
            test_sequence_increasing_and_infinite;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "generic consistency" `Quick
            test_consistent_with_generic_machinery;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_scaled_cost ]);
    ]
