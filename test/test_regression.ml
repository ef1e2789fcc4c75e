(* Tests for the OLS affine fit. *)

module R = Numerics.Regression

let close ?(tol = 1e-10) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_exact_line () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let y = Array.map (fun v -> (2.5 *. v) +. 1.0) x in
  let f = R.ols ~x ~y in
  close "slope" 2.5 f.R.slope;
  close "intercept" 1.0 f.R.intercept;
  close "r^2 = 1" 1.0 f.R.r_squared;
  close "residual std = 0" 0.0 f.R.residual_std;
  Alcotest.(check int) "n" 4 f.R.n

let test_known_noisy_fit () =
  (* Hand-computable 3-point example: x = 0,1,2; y = 0,1,3.
     slope = 1.5, intercept = -1/6. *)
  let f = R.ols ~x:[| 0.0; 1.0; 2.0 |] ~y:[| 0.0; 1.0; 3.0 |] in
  close "slope" 1.5 f.R.slope;
  close "intercept" (-1.0 /. 6.0) f.R.intercept;
  Alcotest.(check bool) "r^2 below 1" true (f.R.r_squared < 1.0);
  Alcotest.(check bool) "r^2 high" true (f.R.r_squared > 0.95)

let test_errors () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Regression.ols: length mismatch") (fun () ->
      ignore (R.ols ~x:[| 1.0 |] ~y:[| 1.0; 2.0 |]));
  Alcotest.check_raises "too few points"
    (Invalid_argument "Regression.ols: need at least two points") (fun () ->
      ignore (R.ols ~x:[| 1.0 |] ~y:[| 1.0 |]));
  Alcotest.check_raises "constant x"
    (Invalid_argument "Regression.ols: x values are constant") (fun () ->
      ignore (R.ols ~x:[| 2.0; 2.0 |] ~y:[| 1.0; 3.0 |]))

let prop_recovers_exact_lines =
  QCheck.Test.make ~count:300 ~name:"ols recovers noiseless affine data"
    QCheck.(
      triple (float_range (-50.0) 50.0) (float_range (-50.0) 50.0)
        (list_of_size Gen.(int_range 3 50) (float_range (-100.0) 100.0)))
    (fun (a, b, xs) ->
      let xs = List.sort_uniq compare xs in
      if List.length xs < 2 then true
      else begin
        let x = Array.of_list xs in
        let y = Array.map (fun v -> (a *. v) +. b) x in
        let f = R.ols ~x ~y in
        Float.abs (f.R.slope -. a) <= 1e-6 *. (1.0 +. Float.abs a)
        && Float.abs (f.R.intercept -. b) <= 1e-5 *. (1.0 +. Float.abs b)
      end)

let prop_residuals_orthogonal =
  QCheck.Test.make ~count:200 ~name:"ols residuals sum to ~0"
    QCheck.(list_of_size Gen.(int_range 3 40)
              (pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0)))
    (fun pts ->
      let pts =
        List.sort_uniq (fun (x1, _) (x2, _) -> compare x1 x2) pts
      in
      if List.length pts < 3 then true
      else begin
        let x = Array.of_list (List.map fst pts) in
        let y = Array.of_list (List.map snd pts) in
        let f = R.ols ~x ~y in
        let sum =
          Array.to_list x
          |> List.mapi (fun i xi -> y.(i) -. ((f.R.slope *. xi) +. f.R.intercept))
          |> List.fold_left ( +. ) 0.0
        in
        Float.abs sum <= 1e-6 *. float_of_int (Array.length x)
      end)

let points =
  QCheck.(list_of_size Gen.(int_range 3 40)
            (pair (float_range (-10.0) 10.0) (float_range (-10.0) 10.0)))

let distinct_x pts = List.sort_uniq (fun (x1, _) (x2, _) -> compare x1 x2) pts

let fit_of pts =
  R.ols ~x:(Array.of_list (List.map fst pts)) ~y:(Array.of_list (List.map snd pts))

let prop_order_free =
  QCheck.Test.make ~count:200 ~name:"ols ignores the order of the points" points
    (fun pts ->
      let pts = distinct_x pts in
      if List.length pts < 3 then true
      else begin
        let f = fit_of pts and g = fit_of (List.rev pts) in
        let near a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a) in
        near f.R.slope g.R.slope
        && near f.R.intercept g.R.intercept
        && near f.R.r_squared g.R.r_squared
      end)

let prop_diagnostics_in_range =
  QCheck.Test.make ~count:200 ~name:"r^2 in [0, 1], residual std >= 0" points
    (fun pts ->
      let pts = distinct_x pts in
      if List.length pts < 3 then true
      else begin
        let f = fit_of pts in
        f.R.r_squared >= -1e-12
        && f.R.r_squared <= 1.0 +. 1e-12
        && f.R.residual_std >= 0.0
        && f.R.n = List.length pts
      end)

let () =
  Alcotest.run "regression"
    [
      ( "unit",
        [
          Alcotest.test_case "exact line" `Quick test_exact_line;
          Alcotest.test_case "known noisy fit" `Quick test_known_noisy_fit;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_recovers_exact_lines;
          QCheck_alcotest.to_alcotest prop_residuals_orthogonal;
          QCheck_alcotest.to_alcotest prop_order_free;
          QCheck_alcotest.to_alcotest prop_diagnostics_in_range;
        ] );
    ]
