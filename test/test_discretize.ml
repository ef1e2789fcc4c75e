(* Tests for the Sect. 4.2.1 truncation/discretization schemes. *)

module D = Stochastic_core.Discretize
module Disc = Distributions.Discrete
module Dist = Distributions.Dist

(* Total mass and normalised mean of a discretized law. *)
let mass d = Array.fold_left ( +. ) 0.0 d.Disc.probs

let mean d =
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. (v *. d.Disc.probs.(i))) d.Disc.values;
  !s /. mass d

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let test_truncation_point () =
  let u = Distributions.Uniform_dist.default in
  rel_close "bounded: upper bound" 20.0 (D.truncation_point u);
  let e = Distributions.Exponential.default in
  rel_close "unbounded: Q(1 - eps)" (-.log 1e-7) (D.truncation_point e);
  rel_close "custom eps" (-.log 1e-3) (D.truncation_point ~eps:1e-3 e)

let test_equal_probability_uniform () =
  (* Equal-probability on Uniform(10, 20) with n = 5 gives the
     quantiles 12, 14, 16, 18, 20, each with probability 0.2. *)
  let d = D.run D.Equal_probability ~n:5 Distributions.Uniform_dist.default in
  Alcotest.(check (array (float 1e-9))) "values"
    [| 12.0; 14.0; 16.0; 18.0; 20.0 |] d.Disc.values;
  Array.iter (fun p -> rel_close "each prob = 0.2" 0.2 p) d.Disc.probs

let test_equal_time_uniform () =
  (* Equal-time on Uniform gives the same lattice (uniform density). *)
  let d = D.run D.Equal_time ~n:5 Distributions.Uniform_dist.default in
  Alcotest.(check (array (float 1e-9))) "values"
    [| 12.0; 14.0; 16.0; 18.0; 20.0 |] d.Disc.values;
  Array.iter (fun p -> rel_close "each prob = 0.2" 0.2 p) d.Disc.probs

let test_equal_time_spacing () =
  let e = Distributions.Exponential.default in
  let d = D.run D.Equal_time ~n:100 e in
  let b = D.truncation_point e in
  let step = b /. 100.0 in
  Array.iteri
    (fun i v -> rel_close (Printf.sprintf "lattice %d" i)
        (float_of_int (i + 1) *. step) v)
    d.Disc.values

let test_mass_is_one_minus_eps () =
  (* Sect. 4.2.1's observation: probabilities sum to F(b) = 1 - eps for
     unbounded support. *)
  let e = Distributions.Exponential.default in
  let dp = D.run D.Equal_probability ~n:50 e in
  rel_close "equal-prob mass" (1.0 -. 1e-7) (mass dp) ~tol:1e-9;
  let dt = D.run D.Equal_time ~n:50 e in
  rel_close "equal-time mass" (1.0 -. 1e-7) (mass dt) ~tol:1e-6;
  (* Bounded support: full mass. *)
  let u = D.run D.Equal_time ~n:50 Distributions.Uniform_dist.default in
  rel_close "bounded mass" 1.0 (mass u)

let test_equal_probability_mass_per_point () =
  let e = Distributions.Exponential.default in
  let d = D.run D.Equal_probability ~n:40 e in
  Array.iter
    (fun p -> rel_close "f_i = F(b)/n" ((1.0 -. 1e-7) /. 40.0) p)
    d.Disc.probs

let test_last_point_is_truncation () =
  (* Equal-time places v_n = b by construction; Equal-probability
     places v_n = Q(F(b)), which matches b only up to the quantile
     solver's tail conditioning — so compare in probability space
     instead of value space. *)
  List.iter
    (fun (name, dist) ->
      List.iter
        (fun scheme ->
          let d = D.run scheme ~n:64 dist in
          let n = Array.length d.Disc.values in
          let v_n = d.Disc.values.(n - 1) in
          let tail = Dist.sf dist v_n in
          if tail > 2.0 *. 1e-7 then
            Alcotest.failf "%s/%s: v_n leaves tail mass %.3g" name
              (D.scheme_name scheme) tail)
        [ D.Equal_probability; D.Equal_time ])
    Distributions.Table1.all

let test_validation () =
  Alcotest.(check bool) "n = 0 rejected" true
    (try ignore (D.run D.Equal_time ~n:0 Distributions.Exponential.default); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad eps rejected" true
    (try ignore (D.truncation_point ~eps:2.0 Distributions.Exponential.default); false
     with Invalid_argument _ -> true)

let test_moments_approach_continuous () =
  (* The discretized law's mean converges to the continuous mean.
     Equal-time is tight; Equal-probability systematically overweights
     the far tail (its last point carries Q(1 - eps)/n), so it only
     gets a loose bound on heavy-tailed laws — the same bias visible
     in the paper's Table 4 at small n. *)
  List.iter
    (fun (name, dist) ->
      let dt = D.run D.Equal_time ~n:2000 dist in
      let m = mean dt in
      (* Equal-time assigns each lattice cell's mass to its right
         endpoint, so its mean carries an inherent upward bias of
         about half a lattice step. *)
      let step =
        (D.truncation_point dist -. Dist.lower dist) /. 2000.0
      in
      let tol = (0.02 *. Float.max 1.0 dist.Dist.mean) +. (0.6 *. step) in
      if Float.abs (m -. dist.Dist.mean) > tol then
        Alcotest.failf "%s: equal-time mean %.6g vs continuous %.6g" name m
          dist.Dist.mean;
      let dp = D.run D.Equal_probability ~n:2000 dist in
      let mp = mean dp in
      let tolp = 0.12 *. Float.max 1.0 dist.Dist.mean in
      if Float.abs (mp -. dist.Dist.mean) > tolp then
        Alcotest.failf "%s: equal-prob mean %.6g vs continuous %.6g" name mp
          dist.Dist.mean)
    Distributions.Table1.all

let prop_values_strictly_increasing =
  QCheck.Test.make ~count:100 ~name:"discretization values increase"
    QCheck.(pair (oneofl (List.map snd Distributions.Table1.all))
              (pair (oneofl [ D.Equal_probability; D.Equal_time ])
                 (int_range 2 200)))
    (fun (dist, (scheme, n)) ->
      let d = D.run scheme ~n dist in
      let ok = ref true in
      Array.iteri
        (fun i v -> if i > 0 && v <= d.Disc.values.(i - 1) then ok := false)
        d.Disc.values;
      !ok)

let () =
  Alcotest.run "discretize"
    [
      ( "unit",
        [
          Alcotest.test_case "truncation point" `Quick test_truncation_point;
          Alcotest.test_case "equal-prob uniform" `Quick
            test_equal_probability_uniform;
          Alcotest.test_case "equal-time uniform" `Quick test_equal_time_uniform;
          Alcotest.test_case "equal-time lattice" `Quick test_equal_time_spacing;
          Alcotest.test_case "mass = 1 - eps" `Quick test_mass_is_one_minus_eps;
          Alcotest.test_case "equal-prob masses" `Quick
            test_equal_probability_mass_per_point;
          Alcotest.test_case "last point = b" `Quick test_last_point_is_truncation;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "moments converge" `Quick
            test_moments_approach_continuous;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_values_strictly_increasing ] );
    ]
