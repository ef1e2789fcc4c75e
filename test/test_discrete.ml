(* Tests for finite discrete distributions. *)

module D = Distributions.Discrete

let close ?(tol = 1e-12) name expected got =
  Alcotest.(check (float tol)) name expected got

let mass d = Array.fold_left ( +. ) 0.0 d.D.probs

let test_make_sorts_and_merges () =
  let d = D.make [| (3.0, 0.1); (1.0, 0.2); (3.0, 0.3); (2.0, 0.4) |] in
  Alcotest.(check int) "merged size" 3 (Array.length d.D.values);
  Alcotest.(check (array (float 1e-12))) "sorted values" [| 1.0; 2.0; 3.0 |]
    d.D.values;
  Alcotest.(check (array (float 1e-12))) "merged probs" [| 0.2; 0.4; 0.4 |]
    d.D.probs

let test_make_drops_zero () =
  let d = D.make [| (1.0, 0.5); (2.0, 0.0); (3.0, 0.5) |] in
  Alcotest.(check int) "zero-prob point dropped" 2 (Array.length d.D.values)

let test_make_errors () =
  Alcotest.(check bool) "negative prob rejected" true
    (try ignore (D.make [| (1.0, -0.1) |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (D.make [| (1.0, 0.0) |]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "mass > 1 rejected" true
    (try ignore (D.make [| (1.0, 0.6); (2.0, 0.6) |]); false
     with Invalid_argument _ -> true)

let test_total_mass_and_normalize () =
  let d = D.make [| (1.0, 0.3); (2.0, 0.3) |] in
  close "partial mass" 0.6 (mass d);
  let n = D.normalize d in
  close "normalized mass" 1.0 (mass n);
  close "proportions preserved" 0.5 n.D.probs.(0)

let test_make_order_independent () =
  let pairs = [| (3.0, 0.1); (1.0, 0.2); (3.0, 0.3); (2.0, 0.4) |] in
  let d = D.make pairs in
  let r = D.make (Array.of_list (List.rev (Array.to_list pairs))) in
  Alcotest.(check (array (float 0.0))) "same support" d.D.values r.D.values;
  Alcotest.(check (array (float 1e-15))) "same probabilities" d.D.probs
    r.D.probs

let test_mass_tolerance () =
  (* Truncated laws arrive with mass 1 - eps; rounding may push a full
     law a hair above 1, which make tolerates up to 1e-9. *)
  let d = D.make [| (1.0, 0.5); (2.0, 0.5 +. 5e-10) |] in
  close "mass just above 1 kept" (1.0 +. 5e-10) (mass d);
  Alcotest.(check bool) "mass 1 + 2e-9 rejected" true
    (try ignore (D.make [| (1.0, 0.5); (2.0, 0.5 +. 2e-9) |]); false
     with Invalid_argument _ -> true)

(* Up to 20 points on a coarse value grid, so duplicates are common,
   with total mass at most 1. *)
let gen_pairs =
  QCheck.(
    map
      (fun l ->
        let total = List.fold_left (fun a (_, p) -> a +. p) 0.0 l in
        List.map (fun (v, p) -> (float_of_int v, p /. total)) l)
      (list_of_size Gen.(int_range 1 20)
         (pair (int_range 0 10) (float_range 0.01 1.0))))

let prop_support_strict =
  QCheck.Test.make ~count:300
    ~name:"make: strictly increasing support, positive probabilities"
    gen_pairs
    (fun pairs ->
      let d = D.make (Array.of_list pairs) in
      let n = Array.length d.D.values in
      n = Array.length d.D.probs
      && Array.for_all (fun p -> p > 0.0) d.D.probs
      && (let ok = ref true in
          for i = 1 to n - 1 do
            if not (d.D.values.(i - 1) < d.D.values.(i)) then ok := false
          done;
          !ok))

let prop_merge_sums_duplicates =
  QCheck.Test.make ~count:300
    ~name:"make: each point carries the mass of its duplicates"
    gen_pairs
    (fun pairs ->
      let d = D.make (Array.of_list pairs) in
      let input_values = List.sort_uniq Float.compare (List.map fst pairs) in
      Array.to_list d.D.values = input_values
      && Array.for_all2
           (fun v p ->
             let expected =
               List.fold_left
                 (fun a (v', p') -> if Float.equal v v' then a +. p' else a)
                 0.0 pairs
             in
             Float.abs (p -. expected) <= 1e-12)
           d.D.values d.D.probs)

let prop_normalize =
  QCheck.Test.make ~count:300
    ~name:"normalize: unit mass, same support, proportions kept"
    QCheck.(pair gen_pairs (float_range 0.05 1.0))
    (fun (pairs, scale) ->
      let d = D.make (Array.of_list (List.map (fun (v, p) -> (v, p *. scale)) pairs)) in
      let n = D.normalize d in
      let z = mass d in
      Float.abs (mass n -. 1.0) <= 1e-12
      && n.D.values = d.D.values
      && Array.for_all2 (fun p q -> Float.abs (q -. (p /. z)) <= 1e-15) d.D.probs
           n.D.probs)

let () =
  Alcotest.run "discrete"
    [
      ( "unit",
        [
          Alcotest.test_case "make sorts/merges" `Quick test_make_sorts_and_merges;
          Alcotest.test_case "make drops zero" `Quick test_make_drops_zero;
          Alcotest.test_case "make errors" `Quick test_make_errors;
          Alcotest.test_case "mass/normalize" `Quick test_total_mass_and_normalize;
          Alcotest.test_case "make order independent" `Quick
            test_make_order_independent;
          Alcotest.test_case "mass tolerance" `Quick test_mass_tolerance;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_support_strict;
          QCheck_alcotest.to_alcotest prop_merge_sums_duplicates;
          QCheck_alcotest.to_alcotest prop_normalize;
        ] );
    ]
