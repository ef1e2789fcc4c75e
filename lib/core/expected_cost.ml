module Dist = Distributions.Dist
module Kahan = Numerics.Kahan

let omniscient m d =
  let open Cost_model in
  ((m.alpha +. m.beta) *. d.Dist.mean) +. m.gamma

type scoring = Series | Sorted_sample of float array

let sample xs =
  Array.sort Float.compare xs;
  Sorted_sample xs

let tail_eps = 1e-16
let max_terms = 100_000

(* Eq. (4) keeps the last reservation and its survival; Eq. (13) the
   first uncovered sample and, in [comp], what the failed reservations
   cost so far. [n] counts series terms or sample steps. *)
type scorer =
  | Eq4 of { m : Cost_model.t; d : Dist.t; acc : Kahan.t;
             mutable t_prev : float; mutable sf_prev : float; mutable n : int }
  | Eq13 of { m : Cost_model.t; xs : float array; acc : Kahan.t; comp : Kahan.t;
              mutable idx : int; mutable n : int }

let sample_scorer m xs =
  if Array.length xs = 0 then invalid_arg "Expected_cost: empty sample";
  Eq13 { m; xs; acc = Kahan.create (); comp = Kahan.create (); idx = 0; n = 0 }

let scorer scoring m d =
  match scoring with
  | Sorted_sample xs -> sample_scorer m xs
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
      let m = s.m and len = Array.length s.xs in
      s.n <- s.n + 1;
      if s.n > Sequence.max_steps then raise (Sequence.Not_covered s.xs.(s.idx));
      let p = Kahan.sum s.comp in
      while s.idx < len && s.xs.(s.idx) <= t do
        Kahan.add s.acc (p +. (m.alpha *. t) +. (m.beta *. s.xs.(s.idx)) +. m.gamma);
        s.idx <- s.idx + 1
      done;
      s.idx < len && (Kahan.add s.comp ((m.alpha *. t) +. (m.beta *. t) +. m.gamma); true)

let rec feed_seq sc s =
  match Seq.uncons s with
  | None -> ()
  | Some (t, rest) ->
      let sf = match sc with Eq4 s -> Dist.sf s.d t | Eq13 _ -> nan in
      if feed sc t ~sf then feed_seq sc rest

let total = function
  | Eq4 s -> Kahan.sum s.acc
  | Eq13 s ->
      if s.idx < Array.length s.xs then raise (Sequence.Not_covered s.xs.(s.idx));
      Kahan.sum s.acc /. float_of_int (Array.length s.xs)

let score sc s = feed_seq sc s; total sc
let exact m d s = score (scorer Series m d) s
let mean_cost_presampled m ~sorted_samples s = score (sample_scorer m sorted_samples) s
let monte_carlo m d rng ~n s = score (scorer (sample (Dist.samples d rng n)) m d) s
let normalized m d ~cost = cost /. omniscient m d
