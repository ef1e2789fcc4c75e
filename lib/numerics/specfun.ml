let pi = 4.0 *. atan 1.0
let sqrt_two = sqrt 2.0
let sqrt_two_pi = sqrt (2.0 *. pi)
let max_iter = 500
let eps = 1e-16

(* ------------------------------------------------------------------ *)
(* Gamma function: Lanczos approximation, g = 7, 9 coefficients.       *)
(* ------------------------------------------------------------------ *)

let lanczos_g = 7.0

let lanczos_coef =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if Float.is_nan x then invalid_arg "Specfun.log_gamma: nan argument";
  if x <= 0.0 && Float.is_integer x then
    invalid_arg "Specfun.log_gamma: non-positive integer argument";
  if x < 0.5 then
    (* Reflection formula; callers in this project only use x > 0, where
       Gamma(x) > 0 so the absolute value below is exact. *)
    log (pi /. Float.abs (sin (pi *. x))) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let a = ref lanczos_coef.(0) in
    let t = x +. lanczos_g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let gamma x = exp (log_gamma x)

(* ------------------------------------------------------------------ *)
(* Regularized incomplete gamma functions.                             *)
(* ------------------------------------------------------------------ *)

(* Power-series expansion of P(a, x), converges fast for x < a + 1. *)
let gamma_p_series a ~lga x =
  let ap = ref a in
  let sum = ref (1.0 /. a) in
  let del = ref (1.0 /. a) in
  let i = ref 0 in
  let converged = ref false in
  while (not !converged) && !i < max_iter do
    incr i;
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if Float.abs !del < Float.abs !sum *. eps then converged := true
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. lga)

(* Lentz continued fraction for Q(a, x), converges fast for x >= a + 1. *)
let gamma_q_cf a ~lga x =
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let converged = ref false in
  while (not !converged) && !i < max_iter do
    let fi = float_of_int !i in
    let an = -.fi *. (fi -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.0) < eps then converged := true;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. lga) *. !h

(* Staged: [gamma_p a] takes log Gamma(a) once, for every x it is then
   applied to. *)
let gamma_p a =
  if a <= 0.0 then invalid_arg "Specfun.gamma_p: a must be positive";
  let lga = log_gamma a in
  fun x ->
    if x < 0.0 then invalid_arg "Specfun.gamma_p: x must be non-negative";
    (* stochlint: allow FLOAT_EQ — series/cf boundary: x = 0 returns the exact limit P(a, 0) = 0 *)
    if x = 0.0 then 0.0
    else if x < a +. 1.0 then gamma_p_series a ~lga x
    else 1.0 -. gamma_q_cf a ~lga x

let gamma_q a =
  if a <= 0.0 then invalid_arg "Specfun.gamma_q: a must be positive";
  let lga = log_gamma a in
  fun x ->
    if x < 0.0 then invalid_arg "Specfun.gamma_q: x must be non-negative";
    (* stochlint: allow FLOAT_EQ — series/cf boundary: x = 0 returns the exact limit Q(a, 0) = 1 *)
    if x = 0.0 then 1.0
    else if x < a +. 1.0 then 1.0 -. gamma_p_series a ~lga x
    else gamma_q_cf a ~lga x

(* Inverse of P(a, .): Wilson–Hilferty initial guess, then Halley
   steps on P(a, x) - p with the analytic derivative (gamma pdf). Above
   the median it solves Q(a, x) = 1 - p instead (the subtraction is
   exact for p >= 1/2): there P rounds to 1 long before x is resolved,
   so an absolute residual of 1e-12 can hold 1e-4 away from the root.
   Convergence is judged on the step in x, not on the residual. *)
let inverse_gamma_p a p =
  if a <= 0.0 then invalid_arg "Specfun.inverse_gamma_p: a must be positive";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Specfun.inverse_gamma_p: p must be in [0, 1]";
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 0 maps to 0 exactly *)
  if p = 0.0 then 0.0
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 1 maps to +inf *)
  else if p = 1.0 then infinity
  else begin
    let gln = log_gamma a in
    let a1 = a -. 1.0 in
    let lna1 = if a > 1.0 then log a1 else 0.0 in
    let afac = if a > 1.0 then exp ((a1 *. (lna1 -. 1.0)) -. gln) else 0.0 in
    let upper = p > 0.5 in
    let q = 1.0 -. p in
    (* P(a, x) - p, increasing in x, from whichever tail is small. *)
    let gamma_p = gamma_p a and gamma_q = gamma_q a in
    let residual x = if upper then q -. gamma_q x else gamma_p x -. p in
    (* Initial guess. *)
    let x0 =
      if a > 1.0 then begin
        (* Wilson–Hilferty via the normal quantile z of p. *)
        let t = sqrt (-2.0 *. log (if upper then q else p)) in
        let z =
          t
          -. ((2.30753 +. (t *. 0.27061))
             /. (1.0 +. (t *. (0.99229 +. (t *. 0.04481)))))
        in
        let z = if upper then z else -.z in
        Float.max 1e-3
          (a
          *. ((1.0 -. (1.0 /. (9.0 *. a)) +. (z /. (3.0 *. sqrt a))) ** 3.0))
      end
      else begin
        let t = 1.0 -. (a *. (0.253 +. (a *. 0.12))) in
        if p < t then (p /. t) ** (1.0 /. a)
        else 1.0 -. log (q /. (1.0 -. t))
      end
    in
    let density x =
      if a > 1.0 then afac *. exp ((-. (x -. a1)) +. (a1 *. (log x -. lna1)))
      else exp ((-. x) +. (a1 *. log x) -. gln)
    in
    let rec newton x steps =
      let t = density x in
      (* A vanished density leaves the root to the bisection below. *)
      if steps = 0 || not (t > 0.0 && Float.is_finite t) then None
      else begin
        let u = residual x /. t in
        (* Halley correction, as in Numerical Recipes. *)
        let dx = u /. (1.0 -. (0.5 *. Float.min 1.0 (u *. ((a1 /. x) -. 1.0)))) in
        let x' = if x -. dx <= 0.0 then 0.5 *. x else x -. dx in
        if Float.abs dx <= 1e-13 *. x' then Some x' else newton x' (steps - 1)
      end
    in
    (* Where Newton does not settle, bisect a bracket, which is slow but
       unconditionally convergent. It halves the ratio hi / lo while
       that exceeds 2, so roots near 0 resolve too. *)
    let bisect () =
      let lo = ref Float.min_float and hi = ref (Float.max (2.0 *. a) 1.0) in
      while residual !hi < 0.0 && !hi < 1e12 do
        hi := !hi *. 2.0
      done;
      if residual !lo >= 0.0 then 0.0
      else begin
        for _ = 1 to 200 do
          let mid =
            if !hi > 2.0 *. !lo then sqrt !lo *. sqrt !hi
            else 0.5 *. (!lo +. !hi)
          in
          if residual mid < 0.0 then lo := mid else hi := mid
        done;
        0.5 *. (!lo +. !hi)
      end
    in
    (* An initial guess that underflows to 0 is the answer: the root
       lies below the smallest double. *)
    if x0 <= 0.0 then 0.0
    else match newton x0 32 with Some x -> x | None -> bisect ()
  end

(* ------------------------------------------------------------------ *)
(* Error function: libm's, within 2 ulp and several times cheaper than
   the Q(1/2, x^2) route (which test/erf_oracle.ml keeps as the
   oracle).                                                            *)
(* ------------------------------------------------------------------ *)

let erf = Float.erf
let erfc = Float.erfc

(* Acklam's rational approximation to the inverse normal CDF, then one
   Halley refinement step against erfc: full double accuracy. *)
let acklam_a =
  [|
    -3.969683028665376e+01;
    2.209460984245205e+02;
    -2.759285104469687e+02;
    1.383577518672690e+02;
    -3.066479806614716e+01;
    2.506628277459239e+00;
  |]

let acklam_b =
  [|
    -5.447609879822406e+01;
    1.615858368580409e+02;
    -1.556989798598866e+02;
    6.680131188771972e+01;
    -1.328068155288572e+01;
  |]

let acklam_c =
  [|
    -7.784894002430293e-03;
    -3.223964580411365e-01;
    -2.400758277161838e+00;
    -2.549732539343734e+00;
    4.374664141464968e+00;
    2.938163982698783e+00;
  |]

let acklam_d =
  [|
    7.784695709041462e-03;
    3.224671290700398e-01;
    2.445134137142996e+00;
    3.754408661907416e+00;
  |]

let normal_quantile p =
  if p <= 0.0 then
    (* stochlint: allow FLOAT_EQ — endpoint convention: p = 0 maps to -inf, anything below is a domain error *)
    if p = 0.0 then neg_infinity
    else invalid_arg "Specfun.normal_quantile: p must be in [0, 1]"
  else if p >= 1.0 then
    (* stochlint: allow FLOAT_EQ — endpoint convention: p = 1 maps to +inf, anything above is a domain error *)
    if p = 1.0 then infinity
    else invalid_arg "Specfun.normal_quantile: p must be in [0, 1]"
  else begin
    let p_low = 0.02425 in
    let p_high = 1.0 -. p_low in
    let a = acklam_a and b = acklam_b and c = acklam_c and d = acklam_d in
    let x =
      if p < p_low then begin
        let q = sqrt (-2.0 *. log p) in
        (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
        *. q
        +. c.(5)
        |> fun num ->
        num
        /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
      end
      else if p <= p_high then begin
        let q = p -. 0.5 in
        let r = q *. q in
        ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
         *. r
        +. a.(5))
        *. q
        /. ((((((b.(0) *. r) +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r
            +. b.(4))
            *. r
           +. 1.0)
      end
      else begin
        let q = sqrt (-2.0 *. log (1.0 -. p)) in
        -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q
           +. c.(4))
           *. q
          +. c.(5))
        /. (((((d.(0) *. q) +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
      end
    in
    (* One Halley refinement step. *)
    let e = (0.5 *. erfc (-.x /. sqrt_two)) -. p in
    let u = e *. sqrt_two_pi *. exp (x *. x /. 2.0) in
    x -. (u /. (1.0 +. (x *. u /. 2.0)))
  end

let erf_inv z =
  if z <= -1.0 then
    (* stochlint: allow FLOAT_EQ — endpoint convention: z = -1 maps to -inf, anything below is a domain error *)
    if z = -1.0 then neg_infinity
    else invalid_arg "Specfun.erf_inv: argument must be in [-1, 1]"
  else if z >= 1.0 then
    (* stochlint: allow FLOAT_EQ — endpoint convention: z = 1 maps to +inf, anything above is a domain error *)
    if z = 1.0 then infinity
    else invalid_arg "Specfun.erf_inv: argument must be in [-1, 1]"
  else normal_quantile ((z +. 1.0) /. 2.0) /. sqrt_two

(* ------------------------------------------------------------------ *)
(* Beta functions.                                                     *)
(* ------------------------------------------------------------------ *)

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)
let beta_fun a b = exp (log_beta a b)

(* Lentz continued fraction for the incomplete beta function. *)
let betacf a b x =
  let tiny = 1e-300 in
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let converged = ref false in
  while (not !converged) && !m < max_iter do
    let fm = float_of_int !m in
    let m2 = 2.0 *. fm in
    (* Even step. *)
    let aa = fm *. (b -. fm) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    (* Odd step. *)
    let aa = -.(a +. fm) *. (qab +. fm) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.0) < eps then converged := true;
    incr m
  done;
  !h

(* Staged: [betai a b] takes its log Gamma terms once, for every x it
   is then applied to. *)
let betai a b =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Specfun.betai: a and b must be positive";
  let lg = log_gamma (a +. b) -. log_gamma a -. log_gamma b in
  fun x ->
    if x < 0.0 || x > 1.0 then invalid_arg "Specfun.betai: x must be in [0, 1]";
    (* stochlint: allow FLOAT_EQ — betai endpoint: x = 0 returns the exact limit 0 *)
    if x = 0.0 then 0.0
    (* stochlint: allow FLOAT_EQ — betai endpoint: x = 1 returns the exact limit 1 *)
    else if x = 1.0 then 1.0
    else begin
      let bt = exp (lg +. (a *. log x) +. (b *. log (1.0 -. x))) in
      if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
      else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)
    end

let incomplete_beta a b x = betai a b x *. beta_fun a b

(* Inverse of the regularized incomplete beta function: initial guess
   from Abramowitz & Stegun 26.5.22 (or the small-parameter split), then
   Newton iterations clamped to (0, 1). *)
let inverse_betai a b p =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Specfun.inverse_betai: a and b must be positive";
  if p < 0.0 || p > 1.0 then
    invalid_arg "Specfun.inverse_betai: p must be in [0, 1]";
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 0 maps to 0 exactly *)
  if p = 0.0 then 0.0
  (* stochlint: allow FLOAT_EQ — inverse endpoint sentinel: p = 1 maps to 1 exactly *)
  else if p = 1.0 then 1.0
  else begin
    let x0 =
      if a >= 1.0 && b >= 1.0 then begin
        (* A&S 26.5.22 takes the upper-tail normal deviate of p. *)
        let t = -.normal_quantile p in
        let al = ((t *. t) -. 3.0) /. 6.0 in
        let h = 2.0 /. ((1.0 /. ((2.0 *. a) -. 1.0)) +. (1.0 /. ((2.0 *. b) -. 1.0))) in
        let w =
          (t *. sqrt (al +. h) /. h)
          -. (((1.0 /. ((2.0 *. b) -. 1.0)) -. (1.0 /. ((2.0 *. a) -. 1.0)))
             *. (al +. (5.0 /. 6.0) -. (2.0 /. (3.0 *. h))))
        in
        a /. (a +. (b *. exp (2.0 *. w)))
      end
      else begin
        let lna = log (a /. (a +. b)) in
        let lnb = log (b /. (a +. b)) in
        let t = exp (a *. lna) /. a in
        let u = exp (b *. lnb) /. b in
        let w = t +. u in
        if p < t /. w then (a *. w *. p) ** (1.0 /. a)
        else 1.0 -. ((b *. w *. (1.0 -. p)) ** (1.0 /. b))
      end
    in
    let afac = -.log_beta a b in
    let betai = betai a b in
    let a1 = a -. 1.0 and b1 = b -. 1.0 in
    let x0 = if x0 <= 0.0 then 1e-12 else if x0 >= 1.0 then 1.0 -. 1e-12 else x0 in
    let halley x =
      if x > 0.0 && x < 1.0 then begin
        let err = betai x -. p in
        let t = exp ((a1 *. log x) +. (b1 *. log (1.0 -. x)) +. afac) in
        if t > 0.0 then begin
          let u = err /. t in
          let dx =
            u /. (1.0 -. (0.5 *. Float.min 1.0 (u *. ((a1 /. x) -. (b1 /. (1.0 -. x))))))
          in
          let x' = x -. dx in
          if x' <= 0.0 then 0.5 *. (x' +. dx)
          else if x' >= 1.0 then 0.5 *. (x' +. dx +. 1.0)
          else x'
        end
        else x
      end
      else x
    in
    (* [steps] Halley steps, cut short once an iterate repeats: from
       there the iterates cycle (in floating point they often settle
       on a cycle of two or three neighbouring doubles), so the one
       step [steps] would reach is known. *)
    let steps = 16 in
    let xs = Array.make (steps + 1) x0 in
    let rec iterate k =
      if k = steps then xs.(k)
      else
        let next = halley xs.(k) in
        let rec seen j = if j < 0 then None else if Float.equal xs.(j) next then Some j else seen (j - 1) in
        match seen k with
        | Some j -> xs.(j + ((steps - j) mod (k + 1 - j)))
        | None ->
            xs.(k + 1) <- next;
            iterate (k + 1)
    in
    let x = ref (iterate 0) in
    (* Bracketed bisection fallback for tail cases where Newton
       stalls (see inverse_gamma_p). *)
    let residual = betai !x -. p in
    if Float.abs residual > 1e-12 then begin
      let f y = betai y -. p in
      let lo = ref 0.0 and hi = ref 1.0 in
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if f mid < 0.0 then lo := mid else hi := mid
      done;
      x := 0.5 *. (!lo +. !hi)
    end;
    !x
  end
