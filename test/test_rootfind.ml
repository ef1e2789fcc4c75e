(* Tests for the root-finding routines. *)

module R = Numerics.Rootfind

let pi = 4.0 *. atan 1.0

let close ?(tol = 1e-9) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_bisection () =
  close "root of x^2 - 2 on [0, 2]" (sqrt 2.0)
    (R.bisection (fun x -> (x *. x) -. 2.0) 0.0 2.0);
  close "root of cos on [1, 2]" (pi /. 2.0) (R.bisection cos 1.0 2.0);
  close "endpoint root a" 1.0 (R.bisection (fun x -> x -. 1.0) 1.0 2.0);
  close "endpoint root b" 2.0 (R.bisection (fun x -> x -. 2.0) 1.0 2.0)

let test_bisection_no_bracket () =
  Alcotest.(check bool) "raises No_bracket" true
    (try
       ignore (R.bisection (fun x -> (x *. x) +. 1.0) 0.0 1.0);
       false
     with R.No_bracket _ -> true)

let test_brent () =
  close "root of x^3 - x - 2" 1.5213797068045676
    (R.brent (fun x -> (x ** 3.0) -. x -. 2.0) 1.0 2.0)
    ~tol:1e-12;
  close "root of cos" (pi /. 2.0) (R.brent cos 1.0 2.0) ~tol:1e-12;
  close "root of exp(x) - 2" (log 2.0)
    (R.brent (fun x -> exp x -. 2.0) 0.0 1.0)
    ~tol:1e-12;
  (* A nasty flat function near the root. *)
  close "root of (x - 1)^3" 1.0
    (R.brent (fun x -> (x -. 1.0) ** 3.0) 0.0 3.0)
    ~tol:1e-4

let test_brent_no_bracket () =
  Alcotest.(check bool) "raises No_bracket" true
    (try
       ignore (R.brent (fun x -> (x *. x) +. 1.0) 0.0 1.0);
       false
     with R.No_bracket _ -> true)

let test_brent_endpoint_roots () =
  (* An exact zero at either end is returned as is, without iterating. *)
  close "endpoint root a" 1.0 (R.brent (fun x -> x -. 1.0) 1.0 2.0) ~tol:0.0;
  close "endpoint root b" 2.0 (R.brent (fun x -> x -. 2.0) 1.0 2.0) ~tol:0.0

(* A tolerance of 0 is out of reach once the bracket is two adjacent
   floats; the 200-iteration cap must still end both loops, after one
   evaluation per iteration plus the two at the ends. *)
let test_iteration_cap () =
  let calls = ref 0 in
  let f x =
    incr calls;
    (x *. x) -. 2.0
  in
  close "bisection root" (sqrt 2.0) (R.bisection ~tol:0.0 f 0.0 2.0);
  Alcotest.(check bool) "bisection evaluations" true (!calls <= 202);
  calls := 0;
  close "brent root" (sqrt 2.0) (R.brent ~tol:0.0 f 0.0 2.0);
  Alcotest.(check bool) "brent evaluations" true (!calls <= 202)

let prop_brent_polynomial =
  QCheck.Test.make ~count:300 ~name:"brent finds the planted root"
    QCheck.(pair (float_range (-10.0) 10.0) (float_range 0.1 5.0))
    (fun (root, spread) ->
      (* f(x) = (x - root) * (1 + (x - root)^2) has a single real
         root. *)
      let f x =
        let d = x -. root in
        d *. (1.0 +. (d *. d))
      in
      let found = R.brent f (root -. spread) (root +. spread) in
      Float.abs (found -. root) <= 1e-8 *. (1.0 +. Float.abs root))

let prop_bisection_matches_brent =
  QCheck.Test.make ~count:200 ~name:"bisection and brent agree"
    QCheck.(float_range 0.1 20.0)
    (fun c ->
      let f x = exp x -. c -. 1.0 in
      let hi = log (c +. 1.0) +. 1.0 in
      let r1 = R.bisection f (-1.0) hi in
      let r2 = R.brent f (-1.0) hi in
      Float.abs (r1 -. r2) <= 1e-8 *. (1.0 +. Float.abs r1))

let () =
  Alcotest.run "rootfind"
    [
      ( "unit",
        [
          Alcotest.test_case "bisection" `Quick test_bisection;
          Alcotest.test_case "no bracket" `Quick test_bisection_no_bracket;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "brent no bracket" `Quick test_brent_no_bracket;
          Alcotest.test_case "iteration cap" `Quick test_iteration_cap;
          Alcotest.test_case "brent endpoint roots" `Quick
            test_brent_endpoint_roots;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_brent_polynomial;
          QCheck_alcotest.to_alcotest prop_bisection_matches_brent;
        ] );
    ]
