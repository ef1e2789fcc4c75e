type result = { xmin : float; fmin : float; evaluations : int }

let invphi = (sqrt 5.0 -. 1.0) /. 2.0 (* 1/phi *)

(* Iterations either minimiser runs at most: a bound when [tol] is out
   of reach (golden section shrinks the bracket by 0.618 a step, so 200
   steps take it below 1e-41 of its width). *)
let max_iter = 200

let golden_section ?(tol = 1e-10) f a b =
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let evals = ref 0 in
  let feval x =
    incr evals;
    f x
  in
  let c = ref (!b -. (invphi *. (!b -. !a))) in
  let d = ref (!a +. (invphi *. (!b -. !a))) in
  let fc = ref (feval !c) and fd = ref (feval !d) in
  let i = ref 0 in
  while !b -. !a > tol *. (1.0 +. Float.abs !a +. Float.abs !b) && !i < max_iter
  do
    incr i;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (invphi *. (!b -. !a));
      fc := feval !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (invphi *. (!b -. !a));
      fd := feval !d
    end
  done;
  let xmin = if !fc < !fd then !c else !d in
  { xmin; fmin = Float.min !fc !fd; evaluations = !evals }

let brent_min ?(tol = 1e-10) f a b =
  let cgold = 0.3819660112501051 in
  let zeps = 1e-18 in
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let evals = ref 0 in
  let feval x =
    incr evals;
    f x
  in
  let x = ref (!a +. (cgold *. (!b -. !a))) in
  let w = ref !x and v = ref !x in
  let fx = ref (feval !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0.0 and e = ref 0.0 in
  let iter = ref 0 in
  let converged = ref false in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let xm = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. zeps in
    let tol2 = 2.0 *. tol1 in
    if Float.abs (!x -. xm) <= tol2 -. (0.5 *. (!b -. !a)) then converged := true
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        (* Trial parabolic fit through x, v, w. *)
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q = 2.0 *. (q -. r) in
        let p = if q > 0.0 then -.p else p in
        let q = Float.abs q in
        let etemp = !e in
        if
          Float.abs p < Float.abs (0.5 *. q *. etemp)
          && p > q *. (!a -. !x)
          && p < q *. (!b -. !x)
        then begin
          e := !d;
          d := p /. q;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if xm >= !x then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= xm then !a -. !x else !b -. !x);
        d := cgold *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0.0 then tol1 else -.tol1)
      in
      let fu = feval u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w;
        fv := !fw;
        w := !x;
        fw := !fx;
        x := u;
        fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w;
          fv := !fw;
          w := u;
          fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  { xmin = !x; fmin = !fx; evaluations = !evals }

let grid ?(refine = true) ~n f a b =
  if n <= 0 then invalid_arg "Optimize.grid: n must be positive";
  let step = (b -. a) /. float_of_int n in
  let best_x = ref nan and best_f = ref infinity in
  let evals = ref 0 in
  for m = 1 to n do
    let x = a +. (float_of_int m *. step) in
    incr evals;
    let fx = f x in
    if Float.is_finite fx && fx < !best_f then begin
      best_f := fx;
      best_x := x
    end
  done;
  if Float.is_nan !best_x then
    invalid_arg "Optimize.grid: objective invalid at every grid point";
  if refine then begin
    let lo = Float.max a (!best_x -. step) in
    let hi = Float.min b (!best_x +. step) in
    let safe_f x =
      incr evals;
      let v = f x in
      if Float.is_finite v then v else infinity
    in
    let r = golden_section ~tol:1e-8 (fun x -> safe_f x) lo hi in
    if r.fmin < !best_f then begin
      best_f := r.fmin;
      best_x := r.xmin
    end
  end;
  { xmin = !best_x; fmin = !best_f; evaluations = !evals }
