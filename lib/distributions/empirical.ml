let sorted_copy xs =
  let c = Array.copy xs in
  Numerics.Stats.sort c;
  c

let make ?name samples =
  Array.iteri
    (fun i x ->
      if (not (Float.is_finite x)) || x < 0.0 then
        invalid_arg
          (Printf.sprintf
             "Empirical.make: sample %d (%g) must be finite and nonnegative" i
             x))
    samples;
  let xs = sorted_copy samples in
  let n = Array.length xs in
  if n = 0 then invalid_arg "Empirical.make: empty sample";
  if n = 1 then
    invalid_arg
      (Printf.sprintf
         "Empirical.make: a single sample (%g) is a point mass; need at \
          least two distinct values to interpolate"
         xs.(0));
  if xs.(0) = xs.(n - 1) then
    invalid_arg
      (Printf.sprintf
         "Empirical.make: all %d samples are tied at %g (a point mass); \
          need at least two distinct values to interpolate"
         n xs.(0));
  let name =
    match name with Some s -> s | None -> Printf.sprintf "Empirical(n=%d)" n
  in
  let nf1 = float_of_int (n - 1) in
  let lo = xs.(0) and hi = xs.(n - 1) in
  (* Quantile: type-7 interpolation of order statistics. *)
  let quantile x =
    if x < 0.0 || x > 1.0 then invalid_arg "Empirical.quantile: x in [0, 1]";
    Numerics.Stats.quantiles_sorted xs x
  in
  (* CDF: piecewise-linear inverse of the quantile. Ties in xs give
     vertical jumps; we binary-search the segment containing t. *)
  let cdf t =
    if t <= lo then 0.0
    else if t >= hi then 1.0
    else begin
      (* Rightmost i with xs.(i) <= t. *)
      let l = ref 0 and h = ref n in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if xs.(mid) <= t then l := mid + 1 else h := mid
      done;
      let i = !l - 1 in
      if i >= n - 1 then 1.0
      else begin
        let x0 = xs.(i) and x1 = xs.(i + 1) in
        let frac = if x1 > x0 then (t -. x0) /. (x1 -. x0) else 0.0 in
        (float_of_int i +. frac) /. nf1
      end
    end
  in
  (* Density: derivative of the piecewise-linear CDF, constant
     1 / ((n-1) (x_{i+1} - x_i)) on each non-degenerate segment. *)
  let pdf t =
    if t < lo || t > hi then 0.0
    else begin
      let l = ref 0 and h = ref n in
      while !l < !h do
        let mid = (!l + !h) / 2 in
        if xs.(mid) <= t then l := mid + 1 else h := mid
      done;
      let i = min (n - 2) (max 0 (!l - 1)) in
      let width = xs.(i + 1) -. xs.(i) in
      if width > 0.0 then 1.0 /. (nf1 *. width)
      else begin
        (* Tied samples: [t] sits on a zero-width segment (a CDF jump).
           Return the density of the nearest non-degenerate segment —
           an a.e.-equivalent choice that keeps the value finite so a
           tie cannot poison the Eq. (11) recurrence with [inf]. *)
        let j = ref (i + 1) and k = ref (i - 1) and found = ref (-1) in
        while !found < 0 && (!j <= n - 2 || !k >= 0) do
          if !j <= n - 2 && xs.(!j + 1) > xs.(!j) then found := !j
          else if !k >= 0 && xs.(!k + 1) > xs.(!k) then found := !k
          else begin
            incr j;
            decr k
          end
        done;
        (* At least one segment is non-degenerate (xs.(0) < xs.(n-1)). *)
        1.0 /. (nf1 *. (xs.(!found + 1) -. xs.(!found)))
      end
    end
  in
  (* Exact moments of the piecewise-linear CDF: each segment is a
     uniform law on [x_i, x_{i+1}] with mass 1/(n-1). *)
  let seg_mass = 1.0 /. nf1 in
  let mean =
    let acc = Numerics.Kahan.create () in
    for i = 0 to n - 2 do
      Numerics.Kahan.add acc (seg_mass *. 0.5 *. (xs.(i) +. xs.(i + 1)))
    done;
    Numerics.Kahan.sum acc
  in
  let variance =
    let acc = Numerics.Kahan.create () in
    for i = 0 to n - 2 do
      let a = xs.(i) and b = xs.(i + 1) in
      (* E[X^2] on a uniform segment = (a^2 + ab + b^2) / 3. *)
      Numerics.Kahan.add acc
        (seg_mass *. (((a *. a) +. (a *. b) +. (b *. b)) /. 3.0))
    done;
    Numerics.Kahan.sum acc -. (mean *. mean)
  in
  (* Conditional mean: exact integral of the tail of the piecewise-
     uniform density. *)
  let conditional_mean tau =
    if tau <= lo then mean
    else if tau >= hi then hi
    else begin
      let num = Numerics.Kahan.create () and den = Numerics.Kahan.create () in
      for i = 0 to n - 2 do
        let a = xs.(i) and b = xs.(i + 1) in
        if b > tau && b > a then begin
          let a' = Float.max a tau in
          let mass = seg_mass *. ((b -. a') /. (b -. a)) in
          Numerics.Kahan.add num (mass *. 0.5 *. (a' +. b));
          Numerics.Kahan.add den mass
        end
      done;
      let den = Numerics.Kahan.sum den in
      if den <= 0.0 then hi else Numerics.Kahan.sum num /. den
    end
  in
  let sample rng = quantile (Randomness.Rng.float rng) in
  {
    Dist.name;
    support = Dist.Bounded (lo, hi);
    pdf;
    cdf;
    quantile;
    mean;
    variance;
    sample;
    conditional_mean;
  }

let ks_statistic d samples =
  let xs = sorted_copy samples in
  let n = Array.length xs in
  if n = 0 then invalid_arg "Empirical.ks_statistic: empty sample";
  let nf = float_of_int n in
  let sup = ref 0.0 in
  for i = 0 to n - 1 do
    let f = d.Dist.cdf xs.(i) in
    let d_plus = (float_of_int (i + 1) /. nf) -. f in
    let d_minus = f -. (float_of_int i /. nf) in
    if d_plus > !sup then sup := d_plus;
    if d_minus > !sup then sup := d_minus
  done;
  !sup
