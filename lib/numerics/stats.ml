let mean = Kahan.mean_array

let variance ?(ddof = 1) xs =
  let n = Array.length xs in
  if n <= ddof then invalid_arg "Stats.variance: not enough samples";
  let m = ref 0.0 and m2 = ref 0.0 in
  Array.iteri
    (fun i x ->
      let k = float_of_int (i + 1) in
      let delta = x -. !m in
      m := !m +. (delta /. k);
      m2 := !m2 +. (delta *. (x -. !m)))
    xs;
  !m2 /. float_of_int (n - ddof)

let std ?ddof xs = sqrt (variance ?ddof xs)

let quantiles_sorted xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.quantile: p must be in [0, 1]";
  if n = 1 then xs.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let lo = min (n - 2) (int_of_float (floor h)) in
    let frac = h -. float_of_int lo in
    xs.(lo) +. (frac *. (xs.(lo + 1) -. xs.(lo)))
  end

let quantile xs p =
  let copy = Array.copy xs in
  Array.sort compare copy;
  quantiles_sorted copy p

(* Nearest-rank definition: the smallest sample value with at least a
   [p] fraction of the sample at or below it, i.e. the order statistic
   of rank ceil(p * n) (rank 1 when p = 0). Always an element of the
   sample — no interpolation. *)
let nearest_rank n p =
  if n = 0 then invalid_arg "Stats.quantile_nearest_rank: empty sample";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Stats.quantile_nearest_rank: p must be in [0, 1]";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if rank < 1 then 1 else if rank > n then n else rank

let quantile_nearest_rank_sorted xs p =
  xs.(nearest_rank (Array.length xs) p - 1)

let quantile_nearest_rank xs p =
  let copy = Array.copy xs in
  Array.sort compare copy;
  quantile_nearest_rank_sorted copy p

let median xs = quantile xs 0.5

let min_max xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.min_max: empty sample";
  let mn = ref xs.(0) and mx = ref xs.(0) in
  for i = 1 to n - 1 do
    if xs.(i) < !mn then mn := xs.(i);
    if xs.(i) > !mx then mx := xs.(i)
  done;
  (!mn, !mx)

type histogram = { bounds : float array; counts : int array }

let histogram ?(bins = 20) xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let mn, mx = min_max xs in
  let width = if mx > mn then (mx -. mn) /. float_of_int bins else 1.0 in
  let bounds = Array.init (bins + 1) (fun i -> mn +. (float_of_int i *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let idx = int_of_float ((x -. mn) /. width) in
      let idx = if idx >= bins then bins - 1 else if idx < 0 then 0 else idx in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  { bounds; counts }
