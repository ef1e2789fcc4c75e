module Dist = Distributions.Dist

type severity = Warning | Fatal
type issue = { id : string; severity : severity; detail : string }

type report = {
  dist_name : string;
  probes : int;
  issues : issue list;
}

(* Fixed near-tail probabilities bracketing the interior grid: the
   solvers care about exactly these regions (the recurrence runs to the
   1 - 1e-9 quantile, the DP truncates at 1 - 1e-7). *)
let low_tails = [ 1e-9; 1e-6; 1e-4; 1e-2 ]
let high_tails = [ 1.0 -. 1e-2; 1.0 -. 1e-4; 1.0 -. 1e-6 ]

(* Interior probe count; slack on the hard numerical identities
   (monotonicity, round-trip deficit); and the bound on the pdf/cdf mass
   discrepancies, which go through quadrature and so cannot meet
   [tol]. *)
let grid = 33
let tol = 1e-6
let mass_tol = 5e-3

(* The probe probabilities, sorted, without repeats. *)
let probe_ps =
  let interior =
    List.init grid (fun i -> float_of_int (i + 1) /. float_of_int (grid + 1))
  in
  List.sort_uniq Float.compare (low_tails @ interior @ high_tails)

let run d =
  let issues = ref [] in
  let add id severity detail = issues := { id; severity; detail } :: !issues in
  (* Every probe is guarded: a raising pdf/cdf/quantile is itself a
     fatal finding, never an escaping exception. *)
  let guard id default f =
    try f ()
    with exn ->
      add id Fatal (Printf.sprintf "raised %s" (Printexc.to_string exn));
      default
  in
  let a = Dist.lower d and b = Dist.upper d in
  let bounded = Dist.is_bounded d in
  if (not (Float.is_finite a)) || a < 0.0 || not (b > a) then
    add "support" Fatal
      (Printf.sprintf "support [%g, %g] violates 0 <= a < b" a b);
  let ps = Array.of_list probe_ps in
  let np = Array.length ps in
  let qs = Array.map (fun p -> guard "quantile" nan (fun () -> d.Dist.quantile p)) ps in
  (* --- quantile: finite, monotone, inside the support -------------- *)
  let quantiles_usable = ref true in
  Array.iteri
    (fun i q ->
      let p = ps.(i) in
      if not (Float.is_finite q) then begin
        quantiles_usable := false;
        add "quantile-finite" Fatal
          (Printf.sprintf "Q(%g) = %g is not finite" p q)
      end
      else begin
        let scale = Float.max 1.0 (Float.abs q) in
        if q < a -. (tol *. scale) then
          add "quantile-support" Fatal
            (Printf.sprintf "Q(%g) = %g below the lower bound %g" p q a);
        if bounded && q > b +. (tol *. scale) then
          add "quantile-support" Fatal
            (Printf.sprintf "Q(%g) = %g above the upper bound %g" p q b);
        if i > 0 && Float.is_finite qs.(i - 1) then
          if q < qs.(i - 1) -. (tol *. Float.max 1.0 (Float.abs qs.(i - 1)))
          then begin
            quantiles_usable := false;
            add "quantile-monotone" Fatal
              (Printf.sprintf "Q(%g) = %g < Q(%g) = %g" p q ps.(i - 1)
                 qs.(i - 1))
          end
      end)
    qs;
  (* --- cdf: range, monotone, boundary ------------------------------ *)
  let cdf_at t = guard "cdf" nan (fun () -> d.Dist.cdf t) in
  (* F(Q(p)) per probe, evaluated once here and reused by the
     round-trip check below; NaN where Q(p) is not finite. *)
  let fqs = Array.make np nan in
  let prev_f = ref neg_infinity and prev_t = ref nan in
  Array.iteri
    (fun i t ->
      if Float.is_finite t then begin
        let f = cdf_at t in
        fqs.(i) <- f;
        if Float.is_nan f then add "cdf-nan" Fatal (Printf.sprintf "F(%g) is NaN" t)
        else begin
          if f < -.tol || f > 1.0 +. tol then
            add "cdf-range" Fatal
              (Printf.sprintf "F(%g) = %g outside [0, 1]" t f);
          if f < !prev_f -. tol then
            add "cdf-monotone" Fatal
              (Printf.sprintf "F(%g) = %g < F(%g) = %g" t f !prev_t !prev_f);
          prev_f := Float.max !prev_f f;
          prev_t := t
        end
      end)
    qs;
  let f_at_a = cdf_at a in
  if Float.is_finite f_at_a && f_at_a > 1e-3 then
    add "cdf-lower-bound" Warning
      (Printf.sprintf "F(a) = F(%g) = %g (mass at the lower bound)" a f_at_a);
  (* --- quantile/cdf round-trip ------------------------------------- *)
  let atoms = ref false in
  Array.iteri
    (fun i q ->
      if Float.is_finite q then begin
        let p = ps.(i) in
        let r = fqs.(i) in
        if Float.is_nan r then ()
        else if p -. r > Float.max (100.0 *. tol) 1e-4 then
          add "quantile-cdf-roundtrip" Fatal
            (Printf.sprintf "F(Q(%g)) = %g falls short of %g" p r p)
        else if r -. p > 0.05 then begin
          if not !atoms then
            add "atom" Warning
              (Printf.sprintf
                 "F(Q(%g)) = %g exceeds %g by %g: probability atom detected"
                 p r p (r -. p));
          atoms := true
        end
      end)
    qs;
  (* --- pdf: nonnegative, finite ------------------------------------ *)
  let pdf_at t = guard "pdf" nan (fun () -> d.Dist.pdf t) in
  let spiky = ref false in
  let pdf_probe t =
    let f = pdf_at t in
    if Float.is_nan f then add "pdf-nan" Fatal (Printf.sprintf "f(%g) is NaN" t)
    else if f < -.tol then
      add "pdf-negative" Fatal (Printf.sprintf "f(%g) = %g < 0" t f)
    (* stochlint: allow FLOAT_EQ — IEEE comparison to infinity is exact (density-spike probe) *)
    else if f = infinity then begin
      if not !spiky then
        add "pdf-not-finite" Warning
          (Printf.sprintf "f(%g) = inf (density spike)" t);
      spiky := true
    end
  in
  Array.iter (fun q -> if Float.is_finite q then pdf_probe q) qs;
  for i = 0 to np - 2 do
    if Float.is_finite qs.(i) && Float.is_finite qs.(i + 1) then
      pdf_probe (0.5 *. (qs.(i) +. qs.(i + 1)))
  done;
  (* --- pdf mass and mean consistency (quadrature) ------------------ *)
  (* Integrating between quantile knots gives every segment comparable
     probability mass, so a near-point-mass spike cannot slip between
     the nodes of a single wide panel. Skipped when atoms or infinite
     densities were detected (the pdf is not a density there). *)
  if !quantiles_usable && (not !atoms) && (not !spiky) && b > a then begin
    let knots =
      let lo = if bounded then a else qs.(0) in
      let hi = if bounded then b else qs.(np - 1) in
      let inner =
        Array.to_list qs |> List.filter (fun q -> q > lo && q < hi)
      in
      let all = lo :: inner @ [ hi ] in
      (* Merge (numerically) coincident knots. *)
      let rec dedupe = function
        | x :: y :: rest ->
            if y -. x <= Float.abs x *. 1e-12 then dedupe (x :: rest)
            else x :: dedupe (y :: rest)
        | rest -> rest
      in
      dedupe all
    in
    let mass = Numerics.Kahan.create () in
    let partial_mean = Numerics.Kahan.create () in
    (* The first segment whose integral came back non-finite. *)
    let nonfinite = ref None in
    let nseg = float_of_int (max 1 (List.length knots - 1)) in
    (* Absolute quadrature tolerances scaled to the check's own
       tolerance and to the distribution's magnitude: an extreme-scale
       law (mean ~ 1e9) must not drive the adaptive rule to full depth
       chasing an irrelevant 1e-8 absolute target. *)
    let tol_mass = mass_tol /. (8.0 *. nseg) in
    let tol_pm =
      if Float.is_finite d.Dist.mean then
        1e-3 *. Float.max 1.0 (Float.abs d.Dist.mean) /. nseg
      else infinity
    in
    let rec over = function
      | u :: (v :: _ as rest) ->
          let seg, seg_mean =
            guard "pdf-integral" (nan, nan) (fun () ->
                (* stochlint: allow FLOAT_EQ — tol_pm = infinity is the skip-sentinel assigned a few lines up *)
                if tol_pm = infinity then
                  ( Numerics.Integrate.gauss_kronrod ~tol:tol_mass ~max_depth:16
                      d.Dist.pdf u v,
                    0.0 )
                else
                  Numerics.Integrate.gauss_kronrod_moment ~tol:tol_mass
                    ~tol_moment:tol_pm ~max_depth:16 d.Dist.pdf u v)
          in
          if Float.is_finite seg && Float.is_finite seg_mean then begin
            Numerics.Kahan.add mass seg;
            Numerics.Kahan.add partial_mean seg_mean
          end
          else if Option.is_none !nonfinite then nonfinite := Some (u, v);
          over rest
      | _ -> ()
    in
    over knots;
    match !nonfinite with
    | Some (u, v) ->
        add "mass-check-skipped" Warning
          (Printf.sprintf
             "pdf integral over [%g, %g] is not finite: quadrature mass \
              checks skipped"
             u v)
    | None -> begin
      (* The knot list is [lo :: inner @ [hi]] post-dedupe, so it is
         nonempty by construction — but that invariant lives two
         screens up, so match on the shape and report a typed Fatal
         instead of trusting [List.hd]/[List.nth] not to raise. *)
      match knots with
      | [] ->
          add "pdf-support" Fatal
            "empty quantile-knot list: pdf support cannot be bracketed"
      | t_lo :: rest ->
      let t_hi = List.fold_left (fun _ k -> k) t_lo rest in
      let df = cdf_at t_hi -. cdf_at t_lo in
      let mass = Numerics.Kahan.sum mass in
      if Float.is_finite df && Float.abs (mass -. df) > mass_tol then
        add "pdf-cdf-mass" Fatal
          (Printf.sprintf
             "integral of pdf over [%g, %g] is %g but F gives %g" t_lo t_hi
             mass df);
      if Float.abs (mass -. 1.0) > mass_tol +. 2e-2 then
        add "pdf-mass" Fatal
          (Printf.sprintf "pdf integrates to %g over [%g, %g], expected ~1"
             mass t_lo t_hi);
      (* Mean consistency: the interior partial mean must never exceed
         the claimed mean; for bounded support it must match it. *)
      let pm = Numerics.Kahan.sum partial_mean in
      let mean_scale = Float.max 1.0 (Float.abs d.Dist.mean) in
      if Float.is_finite d.Dist.mean then begin
        if pm > d.Dist.mean +. (0.01 *. mean_scale) then
          add "mean-consistency" Fatal
            (Printf.sprintf
               "integral of t*f(t) over [%g, %g] is %g, exceeding the \
                claimed mean %g"
               t_lo t_hi pm d.Dist.mean);
        if bounded && Float.abs (pm -. d.Dist.mean) > 0.01 *. mean_scale then
          add "mean-consistency" Fatal
            (Printf.sprintf "integral of t*f(t) gives mean %g, claimed %g" pm
               d.Dist.mean)
      end
    end
  end
  else if !atoms || !spiky then
    add "mass-check-skipped" Warning
      "atoms / density spikes present: quadrature mass checks skipped";
  (* --- moments ------------------------------------------------------ *)
  if Float.is_nan d.Dist.mean then add "mean" Fatal "mean is NaN"
  (* stochlint: allow FLOAT_EQ — IEEE comparison to infinity is exact (infinite-mean law) *)
  else if d.Dist.mean = infinity then
    add "mean" Fatal "mean is infinite: every strategy has infinite cost"
  else begin
    if d.Dist.mean < a -. (tol *. Float.max 1.0 a) then
      add "mean" Fatal
        (Printf.sprintf "mean %g below the lower bound %g" d.Dist.mean a);
    if bounded && d.Dist.mean > b +. (tol *. Float.max 1.0 b) then
      add "mean" Fatal
        (Printf.sprintf "mean %g above the upper bound %g" d.Dist.mean b)
  end;
  if Float.is_nan d.Dist.variance then add "variance" Fatal "variance is NaN"
  else if d.Dist.variance < -.tol then
    add "variance" Fatal (Printf.sprintf "variance %g < 0" d.Dist.variance)
  (* stochlint: allow FLOAT_EQ — IEEE comparison to infinity is exact (infinite-variance law) *)
  else if d.Dist.variance = infinity then
    add "variance" Warning
      "variance is infinite: Theorem 2 search bounds unavailable \
       (brute-force tier will be skipped for unbounded support)";
  (* --- conditional mean --------------------------------------------- *)
  List.iter
    (fun p ->
      let tau = guard "quantile" nan (fun () -> d.Dist.quantile p) in
      if Float.is_finite tau && tau < b then begin
        let cm = guard "conditional-mean" nan (fun () -> d.Dist.conditional_mean tau) in
        if Float.is_nan cm then
          add "conditional-mean" Fatal
            (Printf.sprintf "E(X | X > %g) is NaN" tau)
        (* stochlint: allow FLOAT_EQ — IEEE comparison to infinity is exact (conditional mean probe) *)
        else if cm = infinity then
          add "conditional-mean" Fatal
            (Printf.sprintf "E(X | X > %g) is infinite" tau)
        else if cm < tau -. (tol *. Float.max 1.0 (Float.abs tau)) then
          add "conditional-mean" Fatal
            (Printf.sprintf "E(X | X > %g) = %g < %g" tau cm tau)
      end)
    [ 0.25; 0.5; 0.9; 0.99 ];
  (* --- sampler ------------------------------------------------------ *)
  let rng = Randomness.Rng.create ~seed:9001 () in
  for _ = 1 to 32 do
    let x = guard "sample" nan (fun () -> d.Dist.sample rng) in
    if not (Float.is_finite x) then
      add "sample" Fatal (Printf.sprintf "sampler produced %g" x)
    else if
      x < a -. (tol *. Float.max 1.0 (Float.abs a))
      || (bounded && x > b +. (tol *. Float.max 1.0 b))
    then
      add "sample-support" Warning
        (Printf.sprintf "sampler produced %g outside [%g, %g]" x a b)
  done;
  (* Collapse duplicate issue ids so a violation on many probes reads
     as one finding (first occurrence kept, in discovery order). *)
  let seen = Hashtbl.create 16 in
  let issues =
    List.rev !issues
    |> List.filter (fun i ->
           let key = (i.id, i.severity) in
           if Hashtbl.mem seen key then false
           else begin
             Hashtbl.add seen key ();
             true
           end)
  in
  { dist_name = d.Dist.name; probes = np; issues }

let fatal r = List.filter (fun i -> i.severity = Fatal) r.issues
let warnings r = List.filter (fun i -> i.severity = Warning) r.issues
let is_valid r = fatal r = []

let summary r =
  let nf = List.length (fatal r) and nw = List.length (warnings r) in
  if nf = 0 && nw = 0 then
    Printf.sprintf "%s: ok (%d probes)" r.dist_name r.probes
  else if nf = 0 then
    Printf.sprintf "%s: ok (%d probes, %d warning%s)" r.dist_name r.probes nw
      (if nw = 1 then "" else "s")
  else
    Printf.sprintf "%s: %d fatal, %d warning%s" r.dist_name nf nw
      (if nw = 1 then "" else "s")

let pp fmt r =
  Format.fprintf fmt "%s" (summary r);
  List.iter
    (fun i ->
      Format.fprintf fmt "@.  [%s] %s: %s"
        (match i.severity with Fatal -> "fatal" | Warning -> "warn")
        i.id i.detail)
    r.issues
