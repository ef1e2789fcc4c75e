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

(* ---------------- oracle: the sort-then-list-merge builder ---------------- *)

let outcome make pairs =
  match make pairs with
  | r -> Ok r
  | exception Invalid_argument msg -> Error msg

let same_outcome pairs =
  let bits a = Array.map Int64.bits_of_float a in
  let got =
    outcome (fun p -> let d = D.make p in (d.D.values, d.D.probs)) pairs
  in
  match (got, outcome Discrete_oracle.make pairs) with
  | Ok (v, p), Ok (v', p') -> bits v = bits v' && bits p = bits p'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

type shape = Increasing | Sorted_with_ties | Unsorted

(* Up to 60 points: strictly increasing, sorted with ties, or in any
   order on a coarse grid (so duplicates are common); a quarter of the
   masses zero, one input in eight with a negative mass, and the total
   scaled to a mass that sometimes exceeds 1. *)
let oracle_pairs =
  let open QCheck.Gen in
  let gen =
    let* shape = oneofl [ Increasing; Sorted_with_ties; Unsorted ] in
    let* n = int_range 0 60 in
    let* steps = array_repeat n (float_range 1e-3 2.0) in
    let* grid = array_repeat n (map float_of_int (int_range 0 10)) in
    let* masses =
      array_repeat n (frequency [ (1, return 0.0); (3, float_range 1e-6 1.0) ])
    in
    (* The index of the negative mass, or -1. *)
    let* negative =
      frequency [ (7, return (-1)); (1, int_bound (max 0 (n - 1))) ]
    in
    let+ scale =
      frequency [ (4, float_range 0.1 1.0); (1, float_range 1.0 1.5) ]
    in
    let values =
      match shape with
      | Increasing ->
          let acc = ref 0.0 in
          Array.map (fun s -> acc := !acc +. s; !acc) steps
      | Sorted_with_ties ->
          let g = Array.copy grid in
          Array.sort compare g;
          g
      | Unsorted -> grid
    in
    let total = Array.fold_left ( +. ) 0.0 masses in
    Array.mapi
      (fun i v ->
        let p = masses.(i) in
        if i = negative then (v, -0.1)
        else (v, if p > 0.0 then p *. scale /. total else p))
      values
  in
  QCheck.make
    ~print:(fun a ->
      String.concat "; "
        (Array.to_list (Array.map (fun (v, p) -> Printf.sprintf "(%h, %h)" v p) a)))
    gen

let prop_oracle =
  QCheck.Test.make ~count:1000
    ~name:"make = the sort-then-merge oracle, bit for bit, errors included"
    oracle_pairs same_outcome

let test_oracle_cases () =
  let check name pairs =
    Alcotest.(check bool) name true (same_outcome pairs)
  in
  check "increasing" [| (1.0, 0.1); (2.0, 0.2); (3.5, 0.3) |];
  check "increasing, zero mass" [| (1.0, 0.1); (2.0, 0.0); (3.5, 0.3) |];
  check "sorted duplicates" [| (1.0, 0.1); (1.0, 0.2); (2.0, 0.3); (2.0, 0.0) |];
  check "unsorted duplicates"
    [| (3.0, 0.1); (1.0, 0.2); (3.0, 0.3); (2.0, 0.1); (1.0, 0.05); (3.0, 0.0) |];
  check "signed zeros" [| (0.0, 0.25); (-0.0, 0.25); (1.0, 0.5) |];
  check "negative probability" [| (1.0, 0.5); (2.0, -0.1) |];
  check "no positive mass" [| (1.0, 0.0); (2.0, 0.0) |];
  check "empty" [||];
  check "mass above 1" [| (1.0, 0.6); (2.0, 0.6) |];
  check "negative mass wins over excess mass" [| (1.0, 0.9); (2.0, 0.9); (3.0, -1.0) |]

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
          Alcotest.test_case "oracle cases" `Quick test_oracle_cases;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_support_strict;
          QCheck_alcotest.to_alcotest prop_merge_sums_duplicates;
          QCheck_alcotest.to_alcotest prop_normalize;
          QCheck_alcotest.to_alcotest prop_oracle;
        ] );
    ]
