(* Counting view of a distribution: every closure call of the law is
   counted into an explicit registry, so a traced op can report how
   many pdf/cdf/quantile/sample evaluations it cost. *)

module Dist = Distributions.Dist
module M = Stochobs.Metrics

type t = {
  pdf : M.counter;
  cdf : M.counter;
  quantile : M.counter;
  sample : M.counter;
}

let create registry =
  {
    pdf = M.counter registry "dist.pdf_calls";
    cdf = M.counter registry "dist.cdf_calls";
    quantile = M.counter registry "dist.quantile_calls";
    sample = M.counter registry "dist.sample_calls";
  }

let counts c = (M.count c.pdf, M.count c.cdf, M.count c.quantile, M.count c.sample)

(* The record is built by naming every field, never with [{ d with ... }]:
   a closure field added to [Dist.t] then breaks this build instead of
   silently escaping the counts. [conditional_mean] is passed through
   uncounted; no workload's hot path calls it. *)
let wrap c (d : Dist.t) : Dist.t =
  {
    Dist.name = d.Dist.name;
    support = d.Dist.support;
    pdf =
      (fun x ->
        M.incr c.pdf;
        d.Dist.pdf x);
    cdf =
      (fun x ->
        M.incr c.cdf;
        d.Dist.cdf x);
    quantile =
      (fun p ->
        M.incr c.quantile;
        d.Dist.quantile p);
    mean = d.Dist.mean;
    variance = d.Dist.variance;
    sample =
      (fun rng ->
        M.incr c.sample;
        d.Dist.sample rng);
    conditional_mean = d.Dist.conditional_mean;
  }

(* The view must be invisible: bit-identical pdf, cdf, quantile and
   sample values to the law it wraps, and exactly one count per call. *)
let self_check (d : Dist.t) =
  let c = create (M.create ~enabled:true ()) in
  let w = wrap c d in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let n = 64 in
  let ps = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  let xs = Array.map d.Dist.quantile ps in
  let ok = ref true in
  Array.iter (fun p -> ok := !ok && same (w.Dist.quantile p) (d.Dist.quantile p)) ps;
  Array.iter
    (fun x ->
      ok := !ok && same (w.Dist.pdf x) (d.Dist.pdf x);
      ok := !ok && same (w.Dist.cdf x) (d.Dist.cdf x))
    xs;
  let r1 = Randomness.Rng.create ~seed:7 () and r2 = Randomness.Rng.create ~seed:7 () in
  for _ = 1 to n do
    ok := !ok && same (w.Dist.sample r1) (d.Dist.sample r2)
  done;
  !ok && counts c = (n, n, n, n)
