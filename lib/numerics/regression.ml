type fit = {
  slope : float;
  intercept : float;
  r_squared : float;
  residual_std : float;
  n : int;
}

let ols ~x ~y =
  let n = Array.length x in
  if n <> Array.length y then invalid_arg "Regression.ols: length mismatch";
  if n < 2 then invalid_arg "Regression.ols: need at least two points";
  let nf = float_of_int n in
  let xbar = Kahan.mean_array x in
  let ybar = Kahan.mean_array y in
  let sxx = Kahan.create () and sxy = Kahan.create () in
  for i = 0 to n - 1 do
    let dx = x.(i) -. xbar in
    Kahan.add sxx (dx *. dx);
    Kahan.add sxy (dx *. (y.(i) -. ybar))
  done;
  let sxx = Kahan.sum sxx and sxy = Kahan.sum sxy in
  (* stochlint: allow FLOAT_EQ — exact-zero spread means a degenerate constant-x design *)
  if sxx = 0.0 then invalid_arg "Regression.ols: x values are constant";
  let slope = sxy /. sxx in
  let intercept = ybar -. (slope *. xbar) in
  let ss_res = Kahan.create () and ss_tot = Kahan.create () in
  for i = 0 to n - 1 do
    let r = y.(i) -. ((slope *. x.(i)) +. intercept) in
    Kahan.add ss_res (r *. r);
    let d = y.(i) -. ybar in
    Kahan.add ss_tot (d *. d)
  done;
  let ss_res = Kahan.sum ss_res and ss_tot = Kahan.sum ss_tot in
  (* stochlint: allow FLOAT_EQ — ss_tot is 0 exactly when every y is identical; r^2 is 1 by convention *)
  let r_squared = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  let residual_std =
    if n > 2 then sqrt (ss_res /. (nf -. 2.0)) else sqrt ss_res
  in
  { slope; intercept; r_squared; residual_std; n }

