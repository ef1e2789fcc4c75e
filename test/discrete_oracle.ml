(* Test oracle for Discrete.make: the sort-then-list-merge builder that
   a single pass over preallocated arrays replaced, kept verbatim apart
   from this header and its result (a pair of arrays, since
   Discrete.t is private). test_discrete pins Discrete.make's support,
   masses and errors against it bit for bit. Do not "fix" or speed up
   this file: its value is that it is the old arithmetic. *)

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
  (Array.map fst pairs, Array.map snd pairs)
