(* Tests for expected-cost evaluation: Eq. (4) against hand-derived
   closed forms (the Sect. 2.3 examples) and against direct Eq. (3)
   integration and Monte-Carlo. *)

module C = Stochastic_core.Cost_model
module S = Stochastic_core.Sequence
module E = Stochastic_core.Expected_cost
module Dist = Distributions.Dist

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let test_omniscient () =
  let d = Distributions.Uniform_dist.default in
  rel_close "reservation only" 15.0 (E.omniscient C.reservation_only d);
  let m = C.make ~alpha:0.95 ~beta:1.0 ~gamma:1.05 () in
  rel_close "neuro model" ((1.95 *. 15.0) +. 1.05) (E.omniscient m d)

let test_uniform_example_section23 () =
  (* The paper's first worked example: Uniform(a, b) with the two-step
     sequence S = ((a+b)/2, b). Closed form derived by direct
     integration of Eq. (3). *)
  let a = 10.0 and b = 20.0 in
  let d = Distributions.Uniform_dist.make ~a ~b in
  let alpha = 1.0 and beta = 0.5 and gamma = 0.25 in
  let m = C.make ~alpha ~beta ~gamma () in
  let mid = 0.5 *. (a +. b) in
  let s = S.of_list [ mid; b ] in
  (* First half of the mass succeeds at t1 = mid; second half pays the
     full failed first slot plus the second reservation. *)
  let expected =
    (0.5 *. ((alpha *. mid) +. (beta *. ((a +. mid) /. 2.0)) +. gamma))
    +. 0.5
       *. ((alpha *. mid) +. (beta *. mid) +. gamma
          +. (alpha *. b)
          +. (beta *. ((mid +. b) /. 2.0))
          +. gamma)
  in
  rel_close "Sect. 2.3 uniform example" expected (E.exact m d s);
  (* Cross-check by direct Eq. (3) integration. *)
  let direct =
    Numerics.Integrate.gauss_kronrod ~initial:8
      (fun t -> snd (S.cost_of_run m s t) *. d.Dist.pdf t)
      a b
  in
  rel_close "Eq. (3) direct integration" direct (E.exact m d s)

let test_exponential_unit_steps () =
  (* For Exp(lambda) and the arithmetic sequence t_i = i/lambda under
     RESERVATIONONLY, Eq. (4) gives
     E = sum_(i>=0) (i+1)/lambda e^-i = (1/lambda) (1/(1-e^-1)
         + e^-1/(1-e^-1)^2)... easier: E = 1/lambda sum (i+1) x^i with
     x = e^-1, = 1/lambda * 1/(1-x)^2. *)
  let lambda = 2.0 in
  let d = Distributions.Exponential.make ~rate:lambda in
  let s =
    Seq.ints 1 |> Seq.map (fun i -> float_of_int i /. lambda)
  in
  let x = exp (-1.0) in
  let expected = 1.0 /. lambda /. ((1.0 -. x) ** 2.0) in
  rel_close "geometric series closed form" expected
    (E.exact C.reservation_only d s)

let test_exact_vs_direct_integration () =
  (* Arbitrary model and sequence on LogNormal: Eq. (4) must equal the
     direct expectation of C(k, t). *)
  let d = Distributions.Lognormal.default in
  let m = C.make ~alpha:1.1 ~beta:0.4 ~gamma:0.3 () in
  let s =
    S.sanitize ~support:d.Dist.support
      (List.to_seq [ 10.0; 25.0; 60.0; 150.0 ])
  in
  let eq4 = E.exact m d s in
  let direct =
    Numerics.Integrate.to_infinity
      (fun t -> snd (S.cost_of_run m s t) *. d.Dist.pdf t)
      0.0
  in
  rel_close "Eq. (4) = Eq. (3)" direct eq4 ~tol:1e-6

let test_monte_carlo_converges_to_exact () =
  let d = Distributions.Gamma_dist.default in
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.2 () in
  let s = Stochastic_core.Heuristics.mean_by_mean d in
  let exact = E.exact m d s in
  let rng = Randomness.Rng.create ~seed:404 () in
  let mc = E.monte_carlo m d rng ~n:200_000 s in
  rel_close "MC -> exact" exact mc ~tol:0.01

let test_presampled_reuse () =
  let d = Distributions.Exponential.default in
  let m = C.reservation_only in
  let rng = Randomness.Rng.create ~seed:9 () in
  let samples = Dist.samples d rng 1000 in
  Array.sort compare samples;
  let s1 = S.sanitize ~support:d.Dist.support (List.to_seq [ 1.0 ]) in
  let c1 = E.mean_cost_presampled m ~sorted_samples:samples s1 in
  let c1' = E.mean_cost_presampled m ~sorted_samples:samples s1 in
  rel_close "deterministic on shared samples" c1 c1'

let test_normalized () =
  let d = Distributions.Uniform_dist.default in
  let m = C.reservation_only in
  rel_close "normalized by omniscient" 2.0 (E.normalized m d ~cost:30.0)

let test_normalized_at_least_one () =
  (* Any valid sequence costs at least the omniscient schedule. *)
  List.iter
    (fun (name, d) ->
      let m = C.make ~alpha:1.0 ~beta:0.7 ~gamma:0.1 () in
      let s = Stochastic_core.Heuristics.mean_stdev d in
      let r = E.normalized m d ~cost:(E.exact m d s) in
      if r < 1.0 -. 1e-9 then
        Alcotest.failf "%s: normalized cost %.6f below 1" name r)
    Distributions.Table1.all

let prop_exact_monotone_in_gamma =
  QCheck.Test.make ~count:100 ~name:"expected cost increases with gamma"
    QCheck.(pair (float_range 0.0 2.0) (float_range 0.0 2.0))
    (fun (g1, g2) ->
      let d = Distributions.Exponential.default in
      let s () = Stochastic_core.Heuristics.mean_doubling d in
      let lo = Float.min g1 g2 and hi = Float.max g1 g2 in
      let c g = E.exact (C.make ~gamma:g ()) d (s ()) in
      c lo <= c hi +. 1e-9)

let prop_any_sequence_beats_omniscient =
  QCheck.Test.make ~count:200
    ~name:"every valid sequence costs at least the omniscient schedule"
    QCheck.(
      pair
        (oneofl (List.map snd Distributions.Table1.all))
        (list_of_size Gen.(int_range 0 10) (float_range 0.01 30.0)))
    (fun (d, raw) ->
      (* C(k, t) >= alpha t + beta t + gamma pointwise because the
         successful reservation satisfies t_k >= t, so the expectation
         dominates E^o. *)
      let m = C.make ~alpha:1.0 ~beta:0.6 ~gamma:0.2 () in
      let s =
        Stochastic_core.Sequence.sanitize ~support:d.Dist.support
          (List.to_seq (List.sort_uniq compare raw))
      in
      E.exact m d s >= E.omniscient m d -. 1e-6)

(* The Eq. (13) scorer sums each reservation's covered samples as one
   segment; [Recurrence_oracle.mean_cost_sorted] is the per-sample loop
   it replaced. Both must raise the same [Not_covered] and agree on
   NaN, infinite and finite costs, the last within 4 eps relative (see
   test_recurrence_oracle). *)
let eq13_outcome f =
  match f () with
  | c when Float.is_nan c -> `Nan
  | c when Float.is_finite c -> `Cost c
  | c -> `Inf (c > 0.0)
  | exception S.Not_covered x -> `Not_covered (Int64.bits_of_float x)
  | exception e -> `Raised (Printexc.to_string e)

let same_eq13 expected got =
  match (expected, got) with
  | `Cost e, `Cost g -> Float.abs (g -. e) <= 4.0 *. epsilon_float *. Float.abs e
  | e, g -> e = g

let test_segments_past_max_steps () =
  (* A reservation below every sample covers none: step 100,001 gives
     up with the first uncovered sample. *)
  let samples = [| 1.0; 2.0; 2.0 |] in
  let run f = eq13_outcome (fun () -> f (Seq.repeat 0.5)) in
  let expected = run (fun s -> Recurrence_oracle.mean_cost_sorted C.neuro_hpc s samples) in
  Alcotest.(check bool) "oracle gives up" true (expected = `Not_covered (Int64.bits_of_float 1.0));
  Alcotest.(check bool) "segments give up alike" true
    (expected = run (fun s -> E.mean_cost_presampled C.neuro_hpc ~sorted_samples:samples s))

let prop_segments_match_per_sample =
  let gen =
    let open QCheck.Gen in
    (* Small integers give tied samples and reservations equal to a
       sample; the specials NaN and +-inf are reservations only. *)
    let value = oneof [ map float_of_int (int_range 0 12); float_range 0.0 12.0 ] in
    let* samples = array_size (int_range 1 40) value in
    let reservation =
      frequency
        [
          (6, value);
          (3, oneofl (Array.to_list samples));
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        ]
    in
    let* raw = list_size (int_range 0 12) reservation in
    let* sorted = bool in
    let* model =
      oneof
        [
          oneofl [ C.reservation_only; C.neuro_hpc ];
          map3
            (fun alpha beta gamma -> C.make ~alpha ~beta ~gamma ())
            (float_range 0.1 3.0) (float_range 0.0 2.0) (float_range 0.0 2.0);
        ]
    in
    Array.sort compare samples;
    return (samples, (if sorted then List.sort compare raw else raw), model)
  in
  let print (samples, raw, (m : C.t)) =
    let floats l = String.concat "; " (List.map (Printf.sprintf "%h") l) in
    Printf.sprintf "samples [%s] reservations [%s] alpha=%g beta=%g gamma=%g"
      (floats (Array.to_list samples)) (floats raw) m.alpha m.beta m.gamma
  in
  QCheck.Test.make ~count:2000
    ~name:"Eq. (13) by segments = per-sample loop (NaN, inf, ties)"
    (QCheck.make ~print gen)
    (fun (samples, raw, m) ->
      let expected =
        eq13_outcome (fun () ->
            Recurrence_oracle.mean_cost_sorted m (List.to_seq raw) samples)
      in
      let presampled =
        eq13_outcome (fun () ->
            E.mean_cost_presampled m ~sorted_samples:samples (List.to_seq raw))
      in
      (* The scorer [sample] builds, fed reservation by reservation. *)
      let fed =
        eq13_outcome (fun () ->
            let sc = E.scorer (E.sample (Array.copy samples)) m Distributions.Exponential.default in
            E.feed_seq sc (List.to_seq raw);
            E.total sc)
      in
      same_eq13 expected presampled && same_eq13 expected fed)

let () =
  Alcotest.run "expected_cost"
    [
      ( "unit",
        [
          Alcotest.test_case "omniscient" `Quick test_omniscient;
          Alcotest.test_case "Sect. 2.3 uniform example" `Quick
            test_uniform_example_section23;
          Alcotest.test_case "exponential unit steps" `Quick
            test_exponential_unit_steps;
          Alcotest.test_case "Eq. (4) vs Eq. (3)" `Quick
            test_exact_vs_direct_integration;
          Alcotest.test_case "MC converges" `Slow test_monte_carlo_converges_to_exact;
          Alcotest.test_case "presampled reuse" `Quick test_presampled_reuse;
          Alcotest.test_case "normalized" `Quick test_normalized;
          Alcotest.test_case "normalized >= 1" `Quick test_normalized_at_least_one;
          Alcotest.test_case "Eq. (13) gives up past max_steps" `Quick
            test_segments_past_max_steps;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_exact_monotone_in_gamma;
          QCheck_alcotest.to_alcotest prop_any_sequence_beats_omniscient;
          QCheck_alcotest.to_alcotest prop_segments_match_per_sample;
        ] );
    ]
