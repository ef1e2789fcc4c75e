type t = { values : float array; probs : float array }

let make pairs =
  let pairs = Array.copy pairs in
  Array.sort (fun (v1, _) (v2, _) -> compare v1 v2) pairs;
  Array.iter
    (fun (_, p) ->
      if p < 0.0 then invalid_arg "Discrete.make: negative probability")
    pairs;
  (* Merge duplicates, drop zero-probability points. *)
  let merged = ref [] in
  Array.iter
    (fun (v, p) ->
      if p > 0.0 then
        match !merged with
        | (v', p') :: rest when v' = v -> merged := (v', p' +. p) :: rest
        | _ -> merged := (v, p) :: !merged)
    pairs;
  let pairs = Array.of_list (List.rev !merged) in
  if Array.length pairs = 0 then
    invalid_arg "Discrete.make: no support point with positive probability";
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 pairs in
  if total > 1.0 +. 1e-9 then
    invalid_arg "Discrete.make: total probability mass exceeds 1";
  {
    values = Array.map fst pairs;
    probs = Array.map snd pairs;
  }

let total_mass d = Numerics.Kahan.sum_array d.probs

let normalize d =
  let z = total_mass d in
  { d with probs = Array.map (fun p -> p /. z) d.probs }

