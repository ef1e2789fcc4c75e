(* The adaptive Gauss-Kronrod integrator as it was before the moment
   integral shared its panels, its metric probes left out: the oracle
   [Integrate.gauss_kronrod] and [gauss_kronrod_moment] are pinned to,
   bit for bit. *)

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

let qk15 f a b =
  let center = 0.5 *. (a +. b) in
  let half = 0.5 *. (b -. a) in
  let fc = f center in
  let result_kronrod = ref (wgk.(7) *. fc) in
  let result_gauss = ref (wg.(3) *. fc) in
  for j = 0 to 6 do
    let x = half *. xgk.(j) in
    let f1 = f (center -. x) in
    let f2 = f (center +. x) in
    let fsum = f1 +. f2 in
    result_kronrod := !result_kronrod +. (wgk.(j) *. fsum);
    if j mod 2 = 1 then
      result_gauss := !result_gauss +. (wg.(j / 2) *. fsum)
  done;
  let integral = !result_kronrod *. half in
  let err = Float.abs ((!result_kronrod -. !result_gauss) *. half) in
  (integral, err)

let gauss_kronrod ?(tol = 1e-10) ?(max_depth = 48) ?(initial = 1) f a b =
  if initial <= 0 then invalid_arg "Integrate.gauss_kronrod: initial <= 0";
  let rec go a b tol depth =
    let integral, err = qk15 f a b in
    (* A nan integrand poisons the error estimate; subdividing would
       explore the full 2^depth tree without ever converging, so
       propagate the nan to the caller instead. *)
    if
      (not (Float.is_finite integral))
      || depth <= 0 || err <= tol
      (* Roundoff floor: once the estimate is within a few ulps of the
         panel's own magnitude, refinement cannot improve it and would
         only blow the recursion tree up. *)
      || err <= 1e-14 *. Float.abs integral
    then integral
    else begin
      let m = 0.5 *. (a +. b) in
      go a m (tol /. 2.0) (depth - 1) +. go m b (tol /. 2.0) (depth - 1)
    end
  in
  let run a b =
    (* Pre-subdividing guards against integrands so peaked that a
       single K15 panel samples none of the mass and its error
       estimate reports spurious convergence. *)
    let h = (b -. a) /. float_of_int initial in
    let acc = Numerics.Kahan.create () in
    for i = 0 to initial - 1 do
      let lo = a +. (float_of_int i *. h) in
      Numerics.Kahan.add acc (go lo (lo +. h) (tol /. float_of_int initial) max_depth)
    done;
    Numerics.Kahan.sum acc
  in
  if a = b then 0.0 else if a > b then -.run b a else run a b
