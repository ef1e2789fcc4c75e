(* Tests for the moldable-job (time x processors) extension, plus the
   Dist.scale helper it relies on. *)

module M = Stochastic_core.Moldable
module C = Stochastic_core.Cost_model
module Dist = Distributions.Dist

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* --------------------------- Dist.scale --------------------------- *)

let test_scale_fields () =
  let d = Distributions.Exponential.make ~rate:2.0 in
  let s = Dist.scale 3.0 d in
  rel_close "scaled mean" 1.5 s.Dist.mean;
  rel_close "scaled variance" (9.0 *. 0.25) s.Dist.variance;
  rel_close "scaled quantile" (3.0 *. d.Dist.quantile 0.4) (s.Dist.quantile 0.4);
  rel_close "scaled cdf" (d.Dist.cdf 1.0) (s.Dist.cdf 3.0);
  rel_close "scaled pdf" (d.Dist.pdf 1.0 /. 3.0) (s.Dist.pdf 3.0);
  rel_close "scaled conditional mean" (3.0 *. d.Dist.conditional_mean 1.0)
    (s.Dist.conditional_mean 3.0);
  (* pdf still integrates to 1. *)
  rel_close "scaled pdf mass" 1.0 (Numerics.Integrate.to_infinity s.Dist.pdf 0.0)
    ~tol:1e-7

let test_scale_bounded_support () =
  let u = Distributions.Uniform_dist.default in
  let s = Dist.scale 0.5 u in
  rel_close "lower" 5.0 (Dist.lower s);
  rel_close "upper" 10.0 (Dist.upper s)

let test_scale_validation () =
  Alcotest.(check bool) "c = 0 rejected" true
    (try ignore (Dist.scale 0.0 Distributions.Exponential.default); false
     with Invalid_argument _ -> true)

(* --------------------------- speedups ----------------------------- *)

let test_speedup_factors () =
  rel_close "linear" 8.0 (M.speedup_factor M.Linear 8);
  rel_close "amdahl serial" 1.0 (M.speedup_factor (M.Amdahl 0.0) 64);
  rel_close "amdahl perfect" 16.0 (M.speedup_factor (M.Amdahl 1.0) 16);
  (* f = 0.9, p = 9: 1 / (0.1 + 0.1) = 5. *)
  rel_close "amdahl interior" 5.0 (M.speedup_factor (M.Amdahl 0.9) 9);
  rel_close "power" (sqrt 16.0) (M.speedup_factor (M.Power 0.5) 16);
  Alcotest.(check bool) "p = 0 rejected" true
    (try ignore (M.speedup_factor M.Linear 0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad fraction rejected" true
    (try ignore (M.speedup_factor (M.Amdahl 1.5) 2); false
     with Invalid_argument _ -> true)

let test_cost_model_scaling () =
  let m = C.make ~alpha:0.5 ~beta:1.0 ~gamma:0.2 () in
  let m4 = M.cost_model_for m ~procs:4 in
  rel_close "alpha scaled" 2.0 m4.C.alpha;
  rel_close "beta unscaled" 1.0 m4.C.beta;
  rel_close "gamma unscaled" 0.2 m4.C.gamma

(* ----------------------- structural facts ------------------------- *)

let test_linear_area_only_is_p_invariant () =
  (* With linear speedup, the reserved area needed to cover the work
     is independent of p, so for beta = 0 every processor count costs
     the same (and, in fact, for any beta the scaled problem maps
     exactly onto the p = 1 problem when beta = 0). *)
  let d = Distributions.Exponential.default in
  let cost = C.reservation_only in
  let r = M.optimize ~max_procs:6 ~m:400 M.Linear cost d in
  let _, c1 = r.M.per_procs.(0) in
  (* The continuum optima coincide exactly; the brute-force grids do
     not scale with p (the Theorem 2 bound A1 is affine, not linear,
     in the distribution scale), so allow grid-resolution slack. *)
  Array.iter
    (fun (p, c) ->
      if Float.abs (c -. c1) > 2e-3 *. c1 then
        Alcotest.failf "p = %d: cost %.6f differs from p = 1 cost %.6f" p c c1)
    r.M.per_procs

let test_linear_with_wallclock_prefers_more_procs () =
  (* beta > 0 charges wall-clock time: with perfect scaling, more
     processors strictly reduce the wall-clock term at no area
     penalty. *)
  let d = Distributions.Exponential.default in
  let cost = C.make ~alpha:1.0 ~beta:2.0 ~gamma:0.0 () in
  let r = M.optimize ~max_procs:8 ~m:400 M.Linear cost d in
  Alcotest.(check int) "max procs optimal" 8 r.M.procs;
  (* And the profile is nonincreasing in p. *)
  let prev = ref infinity in
  Array.iter
    (fun (_, c) ->
      if c > !prev +. 1e-9 then Alcotest.fail "profile not nonincreasing";
      prev := c)
    r.M.per_procs

let test_serial_job_prefers_one_proc () =
  (* Amdahl f = 0: no speedup at all; extra processors only multiply
     the area bill. *)
  let d = Distributions.Lognormal.default in
  let cost = C.make ~alpha:1.0 ~beta:1.0 ~gamma:0.1 () in
  let r = M.optimize ~max_procs:6 ~m:300 (M.Amdahl 0.0) cost d in
  Alcotest.(check int) "p = 1 optimal" 1 r.M.procs

let test_amdahl_interior_optimum () =
  (* f = 0.95 with expensive wall-clock time: parallelism pays up to
     the point where the serial fraction dominates the area bill. *)
  let d = Distributions.Lognormal.default in
  let cost = C.make ~alpha:0.05 ~beta:1.0 ~gamma:0.0 () in
  let r = M.optimize ~max_procs:64 ~m:300 (M.Amdahl 0.95) cost d in
  Alcotest.(check bool)
    (Printf.sprintf "interior optimum (got p = %d)" r.M.procs)
    true
    (r.M.procs > 1 && r.M.procs < 64)

let test_result_consistency () =
  let d = Distributions.Gamma_dist.default in
  let cost = C.make ~alpha:0.2 ~beta:1.0 ~gamma:0.05 () in
  let r = M.optimize ~max_procs:8 ~m:300 (M.Power 0.7) cost d in
  (* The reported cost equals the profile's entry at the chosen p. *)
  let _, c = r.M.per_procs.(r.M.procs - 1) in
  rel_close "cost matches profile" c r.M.expected_cost;
  Alcotest.(check bool) "t1 positive" true (r.M.t1 > 0.0);
  (* The chosen p is the argmin of the profile. *)
  Array.iter
    (fun (_, c') ->
      if c' < r.M.expected_cost -. 1e-12 then
        Alcotest.fail "profile has a cheaper entry than the reported optimum")
    r.M.per_procs

let prop_runtime_distribution_mean =
  QCheck.Test.make ~count:100 ~name:"runtime mean = work mean / speedup"
    QCheck.(pair (int_range 1 64) (float_range 0.1 1.0))
    (fun (p, f) ->
      let d = Distributions.Weibull.default in
      let s = M.Amdahl f in
      let r = M.runtime_distribution s ~procs:p d in
      Float.abs
        (r.Dist.mean -. (d.Dist.mean /. M.speedup_factor s p))
      <= 1e-9)

let () =
  Alcotest.run "moldable"
    [
      ( "scale",
        [
          Alcotest.test_case "fields" `Quick test_scale_fields;
          Alcotest.test_case "bounded support" `Quick test_scale_bounded_support;
          Alcotest.test_case "validation" `Quick test_scale_validation;
        ] );
      ( "unit",
        [
          Alcotest.test_case "speedup factors" `Quick test_speedup_factors;
          Alcotest.test_case "cost model scaling" `Quick test_cost_model_scaling;
          Alcotest.test_case "linear area-only invariance" `Quick
            test_linear_area_only_is_p_invariant;
          Alcotest.test_case "linear + wall-clock" `Quick
            test_linear_with_wallclock_prefers_more_procs;
          Alcotest.test_case "serial job" `Quick test_serial_job_prefers_one_proc;
          Alcotest.test_case "Amdahl interior optimum" `Slow
            test_amdahl_interior_optimum;
          Alcotest.test_case "result consistency" `Quick test_result_consistency;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_runtime_distribution_mean ] );
    ]
