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

(* [Float.compare x y > 0]: NaN sorts below every number and equals
   itself; -0 and +0 tie. Inlined, so neither argument is boxed. *)
let[@inline] after x y =
  x > y || (Float.is_nan y && not (Float.is_nan x))

(* The stdlib's [Array.stable_sort Float.compare] (same split, cutoff
   and merge order) on a float array: every element is read and written
   by index, and no float is passed to a local function, so none is
   boxed. *)
let sort (a : float array) =
  let cutoff = 5 in
  (* Merge [a.(src1ofs ..)] and [src2.(src2ofs ..)] into [dst.(dstofs ..)],
     the left run first on ties. *)
  let merge src1ofs src1len (src2 : float array) src2ofs src2len
      (dst : float array) dstofs =
    let src1r = src1ofs + src1len and src2r = src2ofs + src2len in
    let i1 = ref src1ofs and i2 = ref src2ofs and d = ref dstofs in
    while !i1 < src1r && !i2 < src2r do
      if after (Array.unsafe_get a !i1) (Array.unsafe_get src2 !i2) then begin
        Array.unsafe_set dst !d (Array.unsafe_get src2 !i2);
        incr i2
      end
      else begin
        Array.unsafe_set dst !d (Array.unsafe_get a !i1);
        incr i1
      end;
      incr d
    done;
    if !i1 < src1r then Array.blit a !i1 dst !d (src1r - !i1)
    else Array.blit src2 !i2 dst !d (src2r - !i2)
  in
  (* Insertion-sort [a.(srcofs .. srcofs + len - 1)] into [dst.(dstofs ..)]. *)
  let isortto srcofs (dst : float array) dstofs len =
    for i = 0 to len - 1 do
      let e = Array.unsafe_get a (srcofs + i) in
      let j = ref (dstofs + i - 1) in
      while !j >= dstofs && after (Array.unsafe_get dst !j) e do
        Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
        decr j
      done;
      Array.unsafe_set dst (!j + 1) e
    done
  in
  let rec sortto srcofs dst dstofs len =
    if len <= cutoff then isortto srcofs dst dstofs len
    else begin
      let l1 = len / 2 in
      let l2 = len - l1 in
      sortto (srcofs + l1) dst (dstofs + l1) l2;
      sortto srcofs a (srcofs + l2) l1;
      merge (srcofs + l2) l1 dst (dstofs + l1) l2 dst dstofs
    end
  in
  let l = Array.length a in
  if l <= cutoff then isortto 0 a 0 l
  else begin
    let l1 = l / 2 in
    let l2 = l - l1 in
    let t = Array.create_float l2 in
    sortto l1 t 0 l2;
    sortto 0 a l2 l1;
    merge l2 l1 t 0 l2 a 0
  end

let sorted_copy xs =
  let copy = Array.copy xs in
  sort copy;
  copy

let quantile xs p = quantiles_sorted (sorted_copy xs) p

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
  quantile_nearest_rank_sorted (sorted_copy xs) p

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
