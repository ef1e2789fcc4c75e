(* Tests for the checkpointed-reservation extension. *)

module Ck = Stochastic_core.Checkpoint
module C = Stochastic_core.Cost_model
module S = Stochastic_core.Sequence
module E = Stochastic_core.Expected_cost

let free = Ck.make_params ~checkpoint_cost:0.0 ~restart_cost:0.0

let close ?(tol = 1e-9) name expected got =
  Alcotest.(check (float tol)) name expected got

let test_params_validation () =
  let rejected checkpoint_cost restart_cost =
    try ignore (Ck.make_params ~checkpoint_cost ~restart_cost); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative overhead rejected" true (rejected (-1.0) 0.0);
  List.iter
    (fun (name, c, r) -> Alcotest.(check bool) name true (rejected c r))
    [
      ("NaN checkpoint cost", Float.nan, 0.0);
      ("infinite checkpoint cost", Float.infinity, 0.0);
      ("NaN restart cost", 0.0, Float.nan);
      ("infinite restart cost", 0.0, Float.infinity);
    ]

let test_free_checkpoints_accumulate_progress () =
  (* With zero overheads, sequence (2, 3) completes any job up to
     2 + 3 = 5, unlike the no-checkpoint semantics where only t <= 3
     would be covered. *)
  let m = C.reservation_only in
  let s = List.to_seq [ 2.0; 3.0 ] in
  let k, cost = Ck.cost_of_run free m s 4.5 in
  Alcotest.(check int) "two reservations" 2 k;
  close "pays both slots" 5.0 cost;
  (* The same job is NOT covered without checkpoints. *)
  Alcotest.(check bool) "plain semantics cannot cover 4.5" true
    (try ignore (S.cost_of_run m s 4.5); false with S.Not_covered _ -> true)

let test_hand_example_with_overheads () =
  (* C = 0.5, R = 0.25, alpha = 1, beta = 1, gamma = 0; sequence
     (3, 3.5, 4); job t = 6.
     Slot 1 (no restart): 3 < 6: fail. Progress = 3 - 0.5 = 2.5.
     Pay 3 + 3 = 6.
     Slot 2: usable = 3.5 - 0.25 = 3.25; 2.5 + 3.25 = 5.75 < 6: fail.
     Progress += 3.5 - 0.25 - 0.5 = 2.75 -> 5.25. Pay 3.5 + 3.5 = 7.
     Slot 3: usable = 4 - 0.25 = 3.75; 5.25 + 3.75 >= 6: success.
     Used = 0.25 + (6 - 5.25) = 1.0. Pay alpha*4 + beta*1.0 = 5.
     Total = 18. *)
  let p = Ck.make_params ~checkpoint_cost:0.5 ~restart_cost:0.25 in
  let m = C.make ~alpha:1.0 ~beta:1.0 ~gamma:0.0 () in
  let s = List.to_seq [ 3.0; 3.5; 4.0 ] in
  let k, cost = Ck.cost_of_run p m s 6.0 in
  Alcotest.(check int) "three reservations" 3 k;
  close "hand-computed cost" 18.0 cost

let test_first_slot_success_matches_plain () =
  (* If the job fits in the first reservation, checkpointing changes
     nothing. *)
  let p = Ck.make_params ~checkpoint_cost:0.7 ~restart_cost:0.3 in
  let m = C.make ~alpha:1.2 ~beta:0.8 ~gamma:0.1 () in
  let s = List.to_seq [ 5.0; 9.0 ] in
  let _, plain = S.cost_of_run m s 4.0 in
  let _, ck = Ck.cost_of_run p m s 4.0 in
  close "identical when first slot succeeds" plain ck

let test_useless_slots_raise () =
  (* Slots shorter than the overheads make no progress: must raise
     rather than loop. *)
  let p = Ck.make_params ~checkpoint_cost:1.0 ~restart_cost:1.0 in
  let m = C.reservation_only in
  let s = Seq.unfold (fun i -> Some (1.5 +. (0.1 *. float_of_int i), i + 1)) 0 in
  Alcotest.(check bool) "raises Not_covered" true
    (try ignore (Ck.cost_of_run ~max_steps:100 p m s 50.0); false
     with S.Not_covered _ -> true)

let test_periodic_shape () =
  let p = Ck.make_params ~checkpoint_cost:0.5 ~restart_cost:0.25 in
  let s = S.take 3 (Ck.periodic ~chunk:2.0 p) in
  Alcotest.(check (list (float 1e-12))) "periodic slots" [ 2.5; 2.75; 2.75 ] s;
  Alcotest.(check bool) "chunk <= 0 rejected" true
    (try ignore (Ck.periodic ~chunk:0.0 p : float Seq.t); false
     with Invalid_argument _ -> true)

let test_expected_cost_against_monte_carlo () =
  let p = Ck.make_params ~checkpoint_cost:0.2 ~restart_cost:0.1 in
  let m = C.make ~alpha:1.0 ~beta:0.5 ~gamma:0.1 () in
  let d = Distributions.Gamma_dist.default in
  let s = Ck.periodic ~chunk:1.0 p in
  let exact = Ck.expected_cost p m d s in
  let rng = Randomness.Rng.create ~seed:123 () in
  let mc =
    Numerics.Stats.mean
      (Array.init 50_000 (fun _ ->
           snd (Ck.cost_of_run p m s (d.Distributions.Dist.sample rng))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "quadrature %.4f ~ MC %.4f" exact mc)
    true
    (Float.abs (exact -. mc) < 0.02 *. exact)

let test_free_checkpointing_beats_plain_on_heavy_tail () =
  (* With zero overheads, checkpointing can only help: compare the
     optimal periodic checkpointed strategy against the plain
     brute-force optimum on the heavy-tailed Weibull. *)
  let m = C.reservation_only in
  let d = Distributions.Weibull.default in
  let plain =
    (Stochastic_core.Brute_force.search ~m:800
       ~evaluator:Stochastic_core.Brute_force.Exact m d)
      .Stochastic_core.Brute_force.cost
  in
  let _, c = Ck.optimize_chunk free m d ~chunk_upper:4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "free checkpoints (%.4f) beat plain (%.4f)" c plain)
    true (c < plain)

let test_expensive_checkpoints_can_lose () =
  (* Crushing overheads make checkpointing worse than the plain
     optimum — the other side of the paper's trade-off. *)
  let m = C.reservation_only in
  let d = Distributions.Uniform_dist.default in
  let p = Ck.make_params ~checkpoint_cost:25.0 ~restart_cost:10.0 in
  let plain = 20.0 (* Theorem 4 optimum: single reservation of b. *) in
  let _, c = Ck.optimize_chunk p m d ~chunk_upper:25.0 in
  Alcotest.(check bool) "expensive checkpoints lose" false (c < plain)

let test_optimize_chunk_sane () =
  let p = Ck.make_params ~checkpoint_cost:0.1 ~restart_cost:0.05 in
  let m = C.reservation_only in
  let d = Distributions.Exponential.default in
  let chunk, cost = Ck.optimize_chunk ~m:100 p m d ~chunk_upper:4.0 in
  Alcotest.(check bool) "chunk in range" true (chunk > 0.0 && chunk <= 4.0);
  Alcotest.(check bool) "cost above omniscient" true
    (cost >= E.omniscient m d)

let () =
  Alcotest.run "checkpoint"
    [
      ( "unit",
        [
          Alcotest.test_case "params validation" `Quick test_params_validation;
          Alcotest.test_case "free checkpoints accumulate" `Quick
            test_free_checkpoints_accumulate_progress;
          Alcotest.test_case "hand example" `Quick test_hand_example_with_overheads;
          Alcotest.test_case "first-slot parity" `Quick
            test_first_slot_success_matches_plain;
          Alcotest.test_case "useless slots raise" `Quick test_useless_slots_raise;
          Alcotest.test_case "periodic shape" `Quick test_periodic_shape;
          Alcotest.test_case "quadrature vs MC" `Slow
            test_expected_cost_against_monte_carlo;
          Alcotest.test_case "free checkpoints win (heavy tail)" `Slow
            test_free_checkpointing_beats_plain_on_heavy_tail;
          Alcotest.test_case "expensive checkpoints lose" `Quick
            test_expensive_checkpoints_can_lose;
          Alcotest.test_case "optimize chunk" `Quick test_optimize_chunk_sane;
        ] );
    ]
