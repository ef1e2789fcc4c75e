module Sf = Numerics.Specfun

(* Inverse of the regularized incomplete beta function as it was with a
   fixed 16 Halley steps, its A&S 26.5.22 start taking the upper-tail
   deviate of p as the library's does: the oracle that
   [Specfun.inverse_betai], which stops once the iterates repeat, is
   pinned to, bit for bit. *)
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
        let t = -.Sf.normal_quantile p in
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
    let afac = -.Sf.log_beta a b in
    let a1 = a -. 1.0 and b1 = b -. 1.0 in
    let x = ref x0 in
    if !x <= 0.0 then x := 1e-12;
    if !x >= 1.0 then x := 1.0 -. 1e-12;
    for _ = 1 to 16 do
      if !x > 0.0 && !x < 1.0 then begin
        let err = Sf.betai a b !x -. p in
        let t = exp ((a1 *. log !x) +. (b1 *. log (1.0 -. !x)) +. afac) in
        if t > 0.0 then begin
          let u = err /. t in
          let dx =
            u /. (1.0 -. (0.5 *. Float.min 1.0 (u *. ((a1 /. !x) -. (b1 /. (1.0 -. !x))))))
          in
          x := !x -. dx;
          if !x <= 0.0 then x := 0.5 *. (!x +. dx);
          if !x >= 1.0 then x := 0.5 *. (!x +. dx +. 1.0)
        end
      end
    done;
    (* Bracketed bisection fallback for tail cases where Newton
       stalls (see inverse_gamma_p). *)
    let residual = Sf.betai a b !x -. p in
    if Float.abs residual > 1e-12 then begin
      let f y = Sf.betai a b y -. p in
      let lo = ref 0.0 and hi = ref 1.0 in
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if f mid < 0.0 then lo := mid else hi := mid
      done;
      x := 0.5 *. (!lo +. !hi)
    end;
    !x
  end
