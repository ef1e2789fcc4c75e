(* Tests for the one-dimensional minimisers. *)

module O = Numerics.Optimize

let close ?(tol = 1e-6) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_golden_section () =
  let r = O.golden_section (fun x -> (x -. 1.5) ** 2.0) 0.0 4.0 in
  close "quadratic argmin" 1.5 r.O.xmin;
  close "quadratic min" 0.0 r.O.fmin ~tol:1e-10;
  let r = O.golden_section cos 0.0 (2.0 *. (4.0 *. atan 1.0)) in
  close "cos argmin = pi" (4.0 *. atan 1.0) r.O.xmin ~tol:1e-6

let test_brent_min () =
  let r = O.brent_min (fun x -> (x -. 2.0) ** 2.0 +. 3.0) (-1.0) 5.0 in
  close "brent quadratic argmin" 2.0 r.O.xmin;
  close "brent quadratic min" 3.0 r.O.fmin ~tol:1e-10;
  (* Non-symmetric, non-polynomial objective. *)
  let r = O.brent_min (fun x -> (x *. log x) -. x) 0.1 5.0 in
  close "x ln x - x argmin = 1" 1.0 r.O.xmin ~tol:1e-6;
  Alcotest.(check bool) "brent uses fewer evals than golden" true
    (r.O.evaluations < 100)

(* A tolerance of 0 is never met: golden section must stop at its
   200-step cap (two evaluations to start, one a step), and Brent's
   method within the same cap. *)
let test_iteration_cap () =
  let f x = (x -. 1.5) ** 2.0 in
  let g = O.golden_section ~tol:0.0 f 0.0 4.0 in
  Alcotest.(check int) "golden evaluations" 202 g.O.evaluations;
  close "golden argmin" 1.5 g.O.xmin;
  let b = O.brent_min ~tol:0.0 f 0.0 4.0 in
  Alcotest.(check bool) "brent evaluations" true (b.O.evaluations <= 201);
  close "brent argmin" 1.5 b.O.xmin

let test_grid () =
  let r = O.grid ~n:100 (fun x -> (x -. 0.613) ** 2.0) 0.0 1.0 in
  close "grid+refine argmin" 0.613 r.O.xmin ~tol:1e-4;
  (* Without refinement the answer snaps to the lattice. *)
  let r = O.grid ~refine:false ~n:10 (fun x -> (x -. 0.613) ** 2.0) 0.0 1.0 in
  close "grid argmin on lattice" 0.6 r.O.xmin ~tol:1e-12

let test_grid_invalid_points () =
  (* Objective undefined (nan) on half the domain — those points must
     be skipped, mirroring BRUTE-FORCE discarding invalid t1. *)
  let f x = if x < 0.5 then nan else (x -. 0.7) ** 2.0 in
  let r = O.grid ~n:50 f 0.0 1.0 in
  close "nan region skipped" 0.7 r.O.xmin ~tol:1e-3;
  Alcotest.check_raises "all invalid rejected"
    (Invalid_argument "Optimize.grid: objective invalid at every grid point")
    (fun () -> ignore (O.grid ~n:10 (fun _ -> nan) 0.0 1.0));
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Optimize.grid: n must be positive") (fun () ->
      ignore (O.grid ~n:0 (fun x -> x) 0.0 1.0))

let prop_minimisers_agree =
  QCheck.Test.make ~count:200 ~name:"golden and brent agree on quadratics"
    QCheck.(pair (float_range (-5.0) 5.0) (float_range 0.1 10.0))
    (fun (c, w) ->
      let f x = ((x -. c) /. w) ** 2.0 in
      let g = O.golden_section f (c -. (3.0 *. w)) (c +. (2.0 *. w)) in
      let b = O.brent_min f (c -. (3.0 *. w)) (c +. (2.0 *. w)) in
      Float.abs (g.O.xmin -. b.O.xmin) <= 1e-4 *. (1.0 +. Float.abs c))

let prop_grid_never_worse_than_lattice =
  QCheck.Test.make ~count:200 ~name:"refined grid is at least as good"
    QCheck.(float_range 0.05 0.95)
    (fun c ->
      let f x = Float.abs (x -. c) in
      let coarse = O.grid ~refine:false ~n:20 f 0.0 1.0 in
      let fine = O.grid ~refine:true ~n:20 f 0.0 1.0 in
      fine.O.fmin <= coarse.O.fmin +. 1e-12)

let () =
  Alcotest.run "optimize"
    [
      ( "unit",
        [
          Alcotest.test_case "golden section" `Quick test_golden_section;
          Alcotest.test_case "brent min" `Quick test_brent_min;
          Alcotest.test_case "iteration cap" `Quick test_iteration_cap;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "grid invalid points" `Quick test_grid_invalid_points;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_minimisers_agree;
          QCheck_alcotest.to_alcotest prop_grid_never_worse_than_lattice;
        ] );
    ]
