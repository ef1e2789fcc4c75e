type t = { values : float array; probs : float array }

let by_value ((v1 : float), _) (v2, _) = compare v1 v2

let make pairs =
  Array.iter
    (fun (_, p) ->
      if p < 0.0 then invalid_arg "Discrete.make: negative probability")
    pairs;
  let n = Array.length pairs in
  (* Discretize emits its points strictly increasing; anything else is
     sorted, ties in the order the heap sort leaves them. *)
  let rec increasing i =
    i >= n || (fst pairs.(i - 1) < fst pairs.(i) && increasing (i + 1))
  in
  let pairs =
    if increasing 1 then pairs
    else begin
      let sorted = Array.copy pairs in
      Array.sort by_value sorted;
      sorted
    end
  in
  (* One pass: merge duplicates, drop zero-probability points. *)
  let values = Array.create_float n and probs = Array.create_float n in
  let k = ref 0 in
  Array.iter
    (fun (v, p) ->
      if p > 0.0 then
        if !k > 0 && values.(!k - 1) = v then
          probs.(!k - 1) <- probs.(!k - 1) +. p
        else begin
          values.(!k) <- v;
          probs.(!k) <- p;
          incr k
        end)
    pairs;
  let k = !k in
  if k = 0 then
    invalid_arg "Discrete.make: no support point with positive probability";
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    total := !total +. probs.(i)
  done;
  if !total > 1.0 +. 1e-9 then
    invalid_arg "Discrete.make: total probability mass exceeds 1";
  if k = n then { values; probs }
  else { values = Array.sub values 0 k; probs = Array.sub probs 0 k }

let total_mass d = Numerics.Kahan.sum_array d.probs

let normalize d =
  let z = total_mass d in
  { d with probs = Array.map (fun p -> p /. z) d.probs }

