module Dist = Distributions.Dist
module Kahan = Numerics.Kahan

let omniscient m d =
  let open Cost_model in
  ((m.alpha +. m.beta) *. d.Dist.mean) +. m.gamma

(* [hi.(k) +. lo.(k)] is the compensated sum of [xs.(0 .. k-1)]: the
   Neumaier accumulator's two parts after each sample. *)
type sample = { xs : float array; hi : float array; lo : float array }
type scoring = Series | Sorted_sample of sample

let prefix_sums xs =
  let n = Array.length xs in
  let hi = Array.make (n + 1) 0.0 and lo = Array.make (n + 1) 0.0 in
  let acc = Kahan.create () in
  for k = 0 to n - 1 do
    Kahan.add acc xs.(k);
    let h, l = Kahan.parts acc in
    hi.(k + 1) <- h;
    lo.(k + 1) <- l
  done;
  { xs; hi; lo }

let sample xs =
  Array.stable_sort Float.compare xs;
  Sorted_sample (prefix_sums xs)

(* The sum of [xs.(i .. j-1)]. Each difference is rounded once, relative
   to itself, so a short segment at the end of a long sample keeps its
   digits. *)
let segment_sum p i j = (p.hi.(j) -. p.hi.(i)) +. (p.lo.(j) -. p.lo.(i))

(* The first index from [i] whose sample [t] does not cover: the sample
   is sorted, so [x <= t] holds on a prefix of [xs.(i ..)] (empty when
   [t] is NaN). Gallop from [i], then bisect. *)
let first_uncovered xs i t =
  let len = Array.length xs in
  (* Invariant: [xs.(lo) <= t]; [hi = len] or [not (xs.(hi) <= t)]. *)
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if xs.(mid) <= t then bisect mid hi else bisect lo mid
  in
  let rec gallop lo step =
    let hi = lo + step in
    if hi >= len then bisect lo len
    else if xs.(hi) <= t then gallop hi (2 * step)
    else bisect lo hi
  in
  if i < len && xs.(i) <= t then gallop i 1 else i

(* The mean each scoring charges [beta] on. A negative sample (outside
   every law's support) voids the bound: the rounding argument behind
   the scan's margin needs nonnegative terms. *)
let first_reservation_bound scoring m d =
  let mean =
    match scoring with
    | Series -> d.Dist.mean
    | Sorted_sample p ->
        let n = Array.length p.xs in
        if n = 0 || p.xs.(0) < 0.0 then nan else segment_sum p 0 n /. float_of_int n
  in
  let open Cost_model in
  if Float.is_finite mean && mean >= 0.0 then fun t1 ->
    (m.alpha *. t1) +. m.gamma +. (m.beta *. mean)
  else fun _ -> neg_infinity

let tail_eps = 1e-16
let max_terms = 100_000

(* Eq. (4) keeps the last reservation and its survival; Eq. (13) the
   first uncovered sample and, in [comp], what the failed reservations
   cost so far. [n] counts series terms or sample steps. *)
type scorer =
  | Eq4 of { m : Cost_model.t; d : Dist.t; acc : Kahan.t;
             mutable t_prev : float; mutable sf_prev : float; mutable n : int }
  | Eq13 of { m : Cost_model.t; sample : sample; acc : Kahan.t; comp : Kahan.t;
              mutable idx : int; mutable n : int }

let sample_scorer m sample =
  if Array.length sample.xs = 0 then invalid_arg "Expected_cost: empty sample";
  Eq13 { m; sample; acc = Kahan.create (); comp = Kahan.create (); idx = 0; n = 0 }

let scorer scoring m d =
  match scoring with
  | Sorted_sample p -> sample_scorer m p
  | Series ->
      let acc = Kahan.create () in
      (* The i = 0 term uses t_0 = 0 and P(X >= 0) = 1. *)
      Kahan.add acc (m.Cost_model.beta *. d.Dist.mean);
      Eq4 { m; d; acc; t_prev = 0.0; sf_prev = 1.0; n = 0 }

let feed sc t ~sf =
  match sc with
  | Eq4 s ->
      let m = s.m in
      Kahan.add s.acc (((m.alpha *. t) +. (m.beta *. s.t_prev) +. m.gamma) *. s.sf_prev);
      s.n <- s.n + 1;
      s.t_prev <- t;
      s.sf_prev <- sf;
      (not (sf < tail_eps)) && s.n <= max_terms
  | Eq13 s ->
      let m = s.m and xs = s.sample.xs in
      s.n <- s.n + 1;
      if s.n > Sequence.max_steps then raise (Sequence.Not_covered xs.(s.idx));
      let i = s.idx in
      let j = first_uncovered xs i t in
      if j > i then begin
        (* The j - i samples in [i, j) each cost C(k, x) =
           p + alpha t + beta x + gamma. The count times the common part
           is added exactly, as a product and its rounding error, so that
           with beta = 0 the sum is the per-sample sum. *)
        let c = Kahan.sum s.comp +. (m.alpha *. t) +. m.gamma
        and cnt = float_of_int (j - i) in
        let prod = cnt *. c in
        Kahan.add s.acc prod;
        Kahan.add s.acc (Float.fma cnt c (-.prod));
        Kahan.add s.acc (m.beta *. segment_sum s.sample i j);
        s.idx <- j
      end;
      j < Array.length xs && (Kahan.add s.comp ((m.alpha *. t) +. (m.beta *. t) +. m.gamma); true)

let rec feed_seq sc s =
  match Seq.uncons s with
  | None -> ()
  | Some (t, rest) ->
      let sf = match sc with Eq4 s -> Dist.sf s.d t | Eq13 _ -> nan in
      if feed sc t ~sf then feed_seq sc rest

let total = function
  | Eq4 s -> Kahan.sum s.acc
  | Eq13 s ->
      let xs = s.sample.xs in
      if s.idx < Array.length xs then raise (Sequence.Not_covered xs.(s.idx));
      Kahan.sum s.acc /. float_of_int (Array.length xs)

let score sc s = feed_seq sc s; total sc
let exact m d s = score (scorer Series m d) s
let mean_cost_presampled m ~sorted_samples s =
  score (sample_scorer m (prefix_sums sorted_samples)) s
let monte_carlo m d rng ~n s = score (scorer (sample (Dist.samples d rng n)) m d) s
let normalized m d ~cost = cost /. omniscient m d
