let default_tol = 1e-10

(* ------------------------------------------------------------------ *)
(* Gauss–Kronrod 7/15.                                                 *)
(* ------------------------------------------------------------------ *)

(* Abscissae of the 15-point Kronrod rule on [-1, 1] (positive half;
   the rule is symmetric). Odd indices are the embedded Gauss nodes. *)
let xgk =
  [|
    0.991455371120813;
    0.949107912342759;
    0.864864423359769;
    0.741531185599394;
    0.586087235467691;
    0.405845151377397;
    0.207784955007898;
    0.000000000000000;
  |]

(* Kronrod weights for the nodes above. *)
let wgk =
  [|
    0.022935322010529;
    0.063092092629979;
    0.104790010322250;
    0.140653259715525;
    0.169004726639267;
    0.190350578064785;
    0.204432940075298;
    0.209482141084728;
  |]

(* Gauss weights for the embedded 7-point rule (nodes xgk.(1,3,5,7)). *)
let wg =
  [|
    0.129484966168870;
    0.279705391489277;
    0.381830050505119;
    0.417959183673469;
  |]

(* [f] at the 15 nodes of [a, b], into [fv]: the centre at 0, then
   centre -/+ half xgk.(j) at 1 + 2j and 2 + 2j, called in that order. *)
let fill fv f a b =
  let center = 0.5 *. (a +. b) in
  let half = 0.5 *. (b -. a) in
  fv.(0) <- f center;
  for j = 0 to 6 do
    let x = half *. xgk.(j) in
    fv.((2 * j) + 1) <- f (center -. x);
    fv.((2 * j) + 2) <- f (center +. x)
  done

(* The K15 value and its G7 error estimate on [a, b] from the node
   values [fv]. *)
let k15 fv a b =
  let half = 0.5 *. (b -. a) in
  let fc = fv.(0) in
  let result_kronrod = ref (wgk.(7) *. fc) in
  let result_gauss = ref (wg.(3) *. fc) in
  for j = 0 to 6 do
    let fsum = fv.((2 * j) + 1) +. fv.((2 * j) + 2) in
    result_kronrod := !result_kronrod +. (wgk.(j) *. fsum);
    if j mod 2 = 1 then
      result_gauss := !result_gauss +. (wg.(j / 2) *. fsum)
  done;
  let integral = !result_kronrod *. half in
  let err = Float.abs ((!result_kronrod -. !result_gauss) *. half) in
  (integral, err)

(* x f(x) at the nodes of [a, b], into [gv], from f's values [fv]. *)
let moments fv gv a b =
  let center = 0.5 *. (a +. b) in
  let half = 0.5 *. (b -. a) in
  gv.(0) <- center *. fv.(0);
  for j = 0 to 6 do
    let x = half *. xgk.(j) in
    gv.((2 * j) + 1) <- (center -. x) *. fv.((2 * j) + 1);
    gv.((2 * j) + 2) <- (center +. x) *. fv.((2 * j) + 2)
  done

let qk15 f a b =
  let fv = Array.make 15 0.0 in
  fill fv f a b;
  k15 fv a b

(* Adaptive bisection of [integral f] and, with [moment], of
   [integral x f(x)], each refined on its own error estimate against
   its own tolerance; [f] is called once per node, whichever integral
   needs it. *)
let adaptive ~tol ~moment ~tol_moment ~max_depth ~initial f a b =
  if initial <= 0 then invalid_arg "Integrate.gauss_kronrod: initial <= 0";
  (* A panel settles when converged or out of depth, and at a
     non-finite value: a nan integrand poisons the error estimate;
     subdividing would explore the full 2^depth tree without ever
     converging, so the nan goes to the caller instead. *)
  let settles ~tol depth (integral, err) =
    (not (Float.is_finite integral))
    || depth <= 0 || err <= tol
    (* Roundoff floor: once the estimate is within a few ulps of the
       panel's own magnitude, refinement cannot improve it and would
       only blow the recursion tree up. *)
    || err <= 1e-14 *. Float.abs integral
  in
  (* The node values are read before the panel splits, so one pair of
     buffers serves the whole recursion. *)
  let fv = Array.make 15 0.0 and gv = Array.make 15 0.0 in
  let rec go a b tol tol_moment depth ~want ~want_moment =
    fill fv f a b;
    let ((v, _) as rv) = if want then k15 fv a b else (0.0, 0.0) in
    let ((w, _) as rw) =
      if want_moment then begin
        moments fv gv a b;
        k15 gv a b
      end
      else (0.0, 0.0)
    in
    let split = want && not (settles ~tol depth rv) in
    let split_moment = want_moment && not (settles ~tol:tol_moment depth rw) in
    if not (split || split_moment) then (v, w)
    else begin
      let m = 0.5 *. (a +. b) in
      let child lo hi =
        go lo hi (tol /. 2.0) (tol_moment /. 2.0) (depth - 1) ~want:split
          ~want_moment:split_moment
      in
      let v1, w1 = child a m in
      let v2, w2 = child m b in
      ((if split then v1 +. v2 else v), if split_moment then w1 +. w2 else w)
    end
  in
  let run a b =
    (* Pre-subdividing guards against integrands so peaked that a
       single K15 panel samples none of the mass and its error
       estimate reports spurious convergence. *)
    let h = (b -. a) /. float_of_int initial in
    let acc = Kahan.create () and acc_moment = Kahan.create () in
    for i = 0 to initial - 1 do
      let lo = a +. (float_of_int i *. h) in
      let v, w =
        go lo (lo +. h) (tol /. float_of_int initial)
          (tol_moment /. float_of_int initial) max_depth ~want:true
          ~want_moment:moment
      in
      Kahan.add acc v;
      Kahan.add acc_moment w
    done;
    (Kahan.sum acc, Kahan.sum acc_moment)
  in
  if a = b then (0.0, 0.0)
  else if a > b then
    let v, w = run b a in
    (-.v, -.w)
  else run a b

let gauss_kronrod ?(tol = default_tol) ?(max_depth = 48) ?(initial = 1) f a b =
  fst (adaptive ~tol ~moment:false ~tol_moment:0.0 ~max_depth ~initial f a b)

let gauss_kronrod_moment ~tol ~tol_moment ~max_depth f a b =
  adaptive ~tol ~moment:true ~tol_moment ~max_depth ~initial:1 f a b

let to_infinity ?(tol = default_tol) f a =
  (* x = a + u / (1 - u), dx = du / (1 - u)^2, u in (0, 1). The
     transformed integrand is often sharply peaked, so start from a
     fine uniform subdivision (see gauss_kronrod). *)
  let g u =
    let one_minus = 1.0 -. u in
    let x = a +. (u /. one_minus) in
    f x /. (one_minus *. one_minus)
  in
  gauss_kronrod ~tol ~initial:32 g 0.0 1.0
