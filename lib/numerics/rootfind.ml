exception No_bracket of string

let same_sign x y = (x > 0.0 && y > 0.0) || (x < 0.0 && y < 0.0)

(* Iterations either solver runs at most, whatever [tol] asks: 200
   bisection steps shrink a bracket by 2^-200. *)
let max_iter = 200

let bisection ?(tol = 1e-12) f a b =
  let fa = f a and fb = f b in
  (* stochlint: allow FLOAT_EQ — exact root hit at the bracket endpoint short-circuits the search *)
  if fa = 0.0 then a
  (* stochlint: allow FLOAT_EQ — exact root hit at the bracket endpoint short-circuits the search *)
  else if fb = 0.0 then b
  else begin
    if same_sign fa fb then
      (* stochlint: allow EXN_IN_CORE — No_bracket is the documented bracketing contract; Robust.Solver maps it into the typed taxonomy *)
      raise (No_bracket "Rootfind.bisection: f(a) and f(b) have the same sign");
    let a = ref a and b = ref b and fa = ref fa in
    let i = ref 0 in
    while !b -. !a > tol && !i < max_iter do
      incr i;
      let m = 0.5 *. (!a +. !b) in
      let fm = f m in
      (* stochlint: allow FLOAT_EQ — exact root hit terminates bisection early *)
      if fm = 0.0 then begin
        a := m;
        b := m
      end
      else if same_sign !fa fm then begin
        a := m;
        fa := fm
      end
      else b := m
    done;
    0.5 *. (!a +. !b)
  end

let brent ?(tol = 1e-14) f a b =
  let fa = f a and fb = f b in
  (* stochlint: allow FLOAT_EQ — exact root hit at the bracket endpoint short-circuits the search *)
  if fa = 0.0 then a
  (* stochlint: allow FLOAT_EQ — exact root hit at the bracket endpoint short-circuits the search *)
  else if fb = 0.0 then b
  else begin
    if same_sign fa fb then
      (* stochlint: allow EXN_IN_CORE — No_bracket is the documented bracketing contract; Robust.Solver maps it into the typed taxonomy *)
      raise (No_bracket "Rootfind.brent: f(a) and f(b) have the same sign");
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    (* Ensure |f(b)| <= |f(a)|: b is the current best iterate. *)
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let i = ref 0 in
    (* stochlint: allow FLOAT_EQ — Brent iterates until f(b) is exactly zero or the bracket collapses *)
    while !fb <> 0.0 && Float.abs (!b -. !a) > tol && !i < max_iter do
      incr i;
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* Inverse quadratic interpolation. *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else
          (* Secant. *)
          !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo = ((3.0 *. !a) +. !b) /. 4.0 in
      let cond1 = not (s > Float.min lo !b && s < Float.max lo !b) in
      let cond2 = !mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0 in
      let cond3 =
        (not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.0
      in
      let cond4 = !mflag && Float.abs (!b -. !c) < tol in
      let cond5 = (not !mflag) && Float.abs (!c -. !d) < tol in
      let s =
        if cond1 || cond2 || cond3 || cond4 || cond5 then begin
          mflag := true;
          0.5 *. (!a +. !b)
        end
        else begin
          mflag := false;
          s
        end
      in
      let fs = f s in
      d := !c;
      c := !b;
      fc := !fb;
      if same_sign !fa fs then begin
        a := s;
        fa := fs
      end
      else begin
        b := s;
        fb := fs
      end;
      if Float.abs !fa < Float.abs !fb then begin
        let t = !a in
        a := !b;
        b := t;
        let t = !fa in
        fa := !fb;
        fb := t
      end
    done;
    !b
  end
