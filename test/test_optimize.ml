(* Tests for the grid minimiser behind the Exp(1) constant of
   Exponential_opt. *)

module O = Recurrence_oracle

let close ?(tol = 1e-6) name expected got =
  Alcotest.(check (float tol)) name expected got

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
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "grid invalid points" `Quick test_grid_invalid_points;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_grid_never_worse_than_lattice;
        ] );
    ]
