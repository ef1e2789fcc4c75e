(* Tests for the Theorem 5 dynamic program, including optimality
   verification against exhaustive search on small instances. *)

module Dp = Stochastic_core.Dp
module C = Stochastic_core.Cost_model
module D = Distributions.Discrete

let rel_close ?(tol = 1e-9) name expected got =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (got -. expected) /. scale > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

(* Exhaustive optimum: enumerate every increasing subsequence of the
   support that ends at v_n (any valid reservation sequence for a
   discrete law is one of these) and take the cheapest. *)
let exhaustive_optimum m d =
  let d = D.normalize d in
  let v = d.D.values in
  let n = Array.length v in
  let best = ref infinity in
  (* Subsets of indices {0..n-2}; index n-1 always included last. *)
  let rec go idx acc =
    if idx = n - 1 then begin
      let seq = Array.of_list (List.rev (v.(n - 1) :: acc)) in
      let c = Dp.expected_cost_brute m d seq in
      if c < !best then best := c
    end
    else begin
      go (idx + 1) acc;
      go (idx + 1) (v.(idx) :: acc)
    end
  in
  go 0 [];
  !best

let random_discrete rng n =
  let values =
    Array.init n (fun _ -> Randomness.Rng.uniform rng 0.1 50.0)
  in
  let probs = Array.init n (fun _ -> Randomness.Rng.uniform rng 0.05 1.0) in
  let total = Array.fold_left ( +. ) 0.0 probs in
  D.make (Array.init n (fun i -> (values.(i), probs.(i) /. total)))

let test_single_point () =
  let d = D.make [| (5.0, 1.0) |] in
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.2 () in
  let sol = Dp.solve m d in
  Alcotest.(check (array (float 1e-12))) "sequence = (v)" [| 5.0 |]
    sol.Dp.reservations;
  (* E = alpha v + beta v + gamma. *)
  rel_close "cost" (5.0 +. 2.5 +. 0.2) sol.Dp.expected_cost

let test_two_point_tradeoff () =
  (* Two values 1 and 10 with p = 0.9 / 0.1 under RESERVATIONONLY:
     reserving (1, 10) costs 1 + 0.1 * 10 = 2; reserving (10) costs
     10. DP must pick the former. With p = 0.05 / 0.95 the single big
     reservation wins (10 vs 1 + 9.5). *)
  let m = C.reservation_only in
  let d1 = D.make [| (1.0, 0.9); (10.0, 0.1) |] in
  let sol1 = Dp.solve m d1 in
  Alcotest.(check (array (float 1e-12))) "two-step" [| 1.0; 10.0 |]
    sol1.Dp.reservations;
  rel_close "two-step cost" 2.0 sol1.Dp.expected_cost;
  let d2 = D.make [| (1.0, 0.05); (10.0, 0.95) |] in
  let sol2 = Dp.solve m d2 in
  Alcotest.(check (array (float 1e-12))) "one-step" [| 10.0 |]
    sol2.Dp.reservations;
  rel_close "one-step cost" 10.0 sol2.Dp.expected_cost

let test_hand_computed_three_points () =
  (* v = (2, 4, 8), f = (0.5, 0.25, 0.25), RESERVATIONONLY. Candidate
     policies (must end at 8):
       (8):        8
       (2, 8):     2 + 0.5 * 8            = 6
       (4, 8):     4 + 0.25 * 8           = 6
       (2, 4, 8):  2 + 0.5*4 + 0.25*8     = 6
     Optimum = 6. *)
  let d = D.make [| (2.0, 0.5); (4.0, 0.25); (8.0, 0.25) |] in
  let sol = Dp.solve C.reservation_only d in
  rel_close "three-point optimum" 6.0 sol.Dp.expected_cost

let test_matches_exhaustive_small () =
  let rng = Randomness.Rng.create ~seed:2718 () in
  for trial = 1 to 25 do
    let n = 2 + Randomness.Rng.int rng 9 in
    let d = random_discrete rng n in
    let m =
      C.make
        ~alpha:(Randomness.Rng.uniform rng 0.5 2.0)
        ~beta:(Randomness.Rng.uniform rng 0.0 1.5)
        ~gamma:(Randomness.Rng.uniform rng 0.0 1.0)
        ()
    in
    let dp = (Dp.solve m d).Dp.expected_cost in
    let ex = exhaustive_optimum m d in
    if Float.abs (dp -. ex) > 1e-9 *. (1.0 +. ex) then
      Alcotest.failf "trial %d: DP %.12g vs exhaustive %.12g" trial dp ex
  done

let test_dp_cost_equals_sequence_cost () =
  (* The DP's reported expected cost must equal the direct evaluation
     of its own output sequence. *)
  let rng = Randomness.Rng.create ~seed:31415 () in
  for _ = 1 to 20 do
    let d = random_discrete rng (3 + Randomness.Rng.int rng 20) in
    let m = C.make ~alpha:1.0 ~beta:0.8 ~gamma:0.3 () in
    let sol = Dp.solve m d in
    let direct = Dp.expected_cost_brute m d sol.Dp.reservations in
    rel_close "reported = replayed" direct sol.Dp.expected_cost
  done

let test_normalization_invariance () =
  (* Scaling all probabilities by a constant (truncated distributions)
     must not change the solution. *)
  let pairs = [| (1.0, 0.4); (3.0, 0.4); (9.0, 0.2) |] in
  let scaled = Array.map (fun (v, p) -> (v, p *. 0.5)) pairs in
  let m = C.make ~alpha:1.0 ~beta:0.3 ~gamma:0.1 () in
  let s1 = Dp.solve m (D.make pairs) in
  let s2 = Dp.solve m (D.make scaled) in
  Alcotest.(check (array (float 1e-12))) "same sequence" s1.Dp.reservations
    s2.Dp.reservations;
  rel_close "same cost" s1.Dp.expected_cost s2.Dp.expected_cost

let test_sequence_ends_at_vn () =
  let rng = Randomness.Rng.create ~seed:99 () in
  for _ = 1 to 20 do
    let d = random_discrete rng 12 in
    let sol = Dp.solve C.reservation_only d in
    let k = Array.length sol.Dp.reservations in
    let n = Array.length d.D.values in
    rel_close "last reservation = v_n" d.D.values.(n - 1)
      sol.Dp.reservations.(k - 1)
  done

let test_uniform_discretized_matches_theorem4 () =
  (* Discretizing Uniform(10, 20) and solving optimally must recover
     the single reservation (b = 20) for RESERVATIONONLY. *)
  let d = Distributions.Uniform_dist.default in
  let disc =
    Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_time
      ~n:100 d
  in
  let sol = Dp.solve C.reservation_only disc in
  Alcotest.(check (array (float 1e-9))) "single (20)" [| 20.0 |]
    sol.Dp.reservations

let test_sequence_for_extends_unbounded () =
  let d = Distributions.Exponential.default in
  let disc =
    Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_time
      ~n:100 d
  in
  let seq = Dp.sequence_for C.reservation_only d disc in
  (* Must cover samples beyond the truncation point by doubling. *)
  let _, cost =
    Stochastic_core.Sequence.cost_of_run C.reservation_only seq 40.0
  in
  Alcotest.(check bool) "covers beyond truncation" true (cost > 40.0)

let test_expected_cost_brute_validation () =
  let d = D.make [| (1.0, 0.5); (2.0, 0.5) |] in
  let m = C.reservation_only in
  Alcotest.(check bool) "non-increasing rejected" true
    (try ignore (Dp.expected_cost_brute m d [| 2.0; 1.5 |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "uncovering sequence rejected" true
    (try ignore (Dp.expected_cost_brute m d [| 1.5 |]); false
     with Invalid_argument _ -> true)

let prop_dp_never_worse_than_single_shot =
  QCheck.Test.make ~count:100 ~name:"DP <= reserve v_n directly"
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Randomness.Rng.create ~seed () in
      let d = random_discrete rng n in
      let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.1 () in
      let dp = (Dp.solve m d).Dp.expected_cost in
      let single =
        Dp.expected_cost_brute m d [| d.D.values.(Array.length d.D.values - 1) |]
      in
      dp <= single +. 1e-9)

(* ------------------------------------------------------------------ *)
(* The convex-hull DP against the O(n^2) scan it replaced: the same    *)
(* reservations and expected cost, bit for bit.                        *)
(* ------------------------------------------------------------------ *)

let bits x = Printf.sprintf "%h" x

let solution_key reservations cost =
  String.concat " " (Array.to_list (Array.map bits reservations)) ^ " -> " ^ bits cost

let oracle_key m d =
  let o = Dp_oracle.solve m d in
  solution_key o.Dp_oracle.reservations o.Dp_oracle.expected_cost

let dp_key m d =
  let sol = Dp.solve m d in
  solution_key sol.Dp.reservations sol.Dp.expected_cost

let test_paper_solves_match_oracle () =
  List.iter
    (fun { Paper_solves.label; model; discrete } ->
      Alcotest.(check string) label (oracle_key model discrete) (dp_key model discrete))
    (Paper_solves.table2 () @ Paper_solves.table4 () @ Paper_solves.fig4 ())

(* Random laws of 1 to 120 points: spread values, values a few ulps to
   1e-9 apart (lines of near-equal slope), small integers (ties in the
   candidate costs) and values over 14 decades; cost models the paper's
   two and random ones. *)
let law_gen =
  let open QCheck.Gen in
  let* n = frequency [ (1, return 1); (9, int_range 1 120) ] in
  let* base = float_range 0.1 50.0 in
  let* values =
    oneof
      [
        array_repeat n (float_range 0.1 50.0);
        array_repeat n (map (fun k -> base +. (base *. 1e-15 *. float_of_int k)) (int_range 0 60));
        array_repeat n (map (fun u -> base *. (1.0 +. (1e-9 *. u))) (float_range 0.0 1.0));
        array_repeat n (map float_of_int (int_range 1 8));
        array_repeat n (map (fun e -> Float.pow 10.0 e) (float_range (-6.0) 8.0));
      ]
  in
  let* probs = array_repeat n (float_range 0.01 1.0) in
  let* model =
    oneof
      [
        oneofl [ C.reservation_only; C.neuro_hpc ];
        map3
          (fun alpha beta gamma -> C.make ~alpha ~beta ~gamma ())
          (float_range 0.1 3.0) (float_range 0.0 2.0) (float_range 0.0 2.0);
      ]
  in
  let total = Array.fold_left ( +. ) 0.0 probs in
  return (model, D.make (Array.init n (fun i -> (values.(i), probs.(i) /. total))))

let print_law ((m : C.t), d) =
  Printf.sprintf "alpha=%g beta=%g gamma=%g law [%s]" m.alpha m.beta m.gamma
    (String.concat "; "
       (Array.to_list
          (Array.mapi (fun i v -> Printf.sprintf "%h:%h" v d.D.probs.(i)) d.D.values)))

let prop_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"convex-hull DP = O(n^2) scan, bit for bit"
    (QCheck.make ~print:print_law law_gen)
    (fun (m, d) ->
      let expected = oracle_key m d and got = dp_key m d in
      if expected <> got then
        QCheck.Test.fail_reportf "oracle %s\n  dp     %s" expected got;
      true)

let () =
  Alcotest.run "dp"
    [
      ( "unit",
        [
          Alcotest.test_case "single point" `Quick test_single_point;
          Alcotest.test_case "two-point tradeoff" `Quick test_two_point_tradeoff;
          Alcotest.test_case "hand-computed" `Quick test_hand_computed_three_points;
          Alcotest.test_case "matches exhaustive" `Quick test_matches_exhaustive_small;
          Alcotest.test_case "reported = replayed" `Quick
            test_dp_cost_equals_sequence_cost;
          Alcotest.test_case "normalization invariance" `Quick
            test_normalization_invariance;
          Alcotest.test_case "ends at v_n" `Quick test_sequence_ends_at_vn;
          Alcotest.test_case "uniform Theorem 4" `Quick
            test_uniform_discretized_matches_theorem4;
          Alcotest.test_case "extends beyond truncation" `Quick
            test_sequence_for_extends_unbounded;
          Alcotest.test_case "brute validation" `Quick
            test_expected_cost_brute_validation;
          Alcotest.test_case "Tables 2/4 and Fig. 4 solves = oracle" `Quick
            test_paper_solves_match_oracle;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_dp_never_worse_than_single_shot;
          QCheck_alcotest.to_alcotest prop_matches_oracle;
        ] );
    ]
