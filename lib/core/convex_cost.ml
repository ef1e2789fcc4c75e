module Dist = Distributions.Dist

type g = {
  g : float -> float;
  g' : float -> float;
  g_inv : float -> float;
  beta : float;
}

let of_affine m =
  let open Cost_model in
  {
    g = (fun x -> (m.alpha *. x) +. m.gamma);
    g' = (fun _ -> m.alpha);
    g_inv = (fun y -> (y -. m.gamma) /. m.alpha);
    beta = m.beta;
  }

let quadratic ~a ~b ~c ~beta =
  if a <= 0.0 then invalid_arg "Convex_cost.quadratic: a must be > 0";
  if b < 0.0 then invalid_arg "Convex_cost.quadratic: b must be >= 0";
  if beta < 0.0 then invalid_arg "Convex_cost.quadratic: beta must be >= 0";
  {
    g = (fun x -> (a *. x *. x) +. (b *. x) +. c);
    g' = (fun x -> (2.0 *. a *. x) +. b);
    g_inv =
      (fun y ->
        (* Positive root of a x^2 + b x + (c - y) = 0. *)
        let disc = (b *. b) -. (4.0 *. a *. (c -. y)) in
        if disc < 0.0 then nan
        else (-.b +. sqrt disc) /. (2.0 *. a));
    beta;
  }

let next gc d ~t_prev2 ~t_prev1 =
  let f1 = d.Dist.pdf t_prev1 in
  let sf2 = Dist.sf d t_prev2 in
  let sf1 = Dist.sf d t_prev1 in
  gc.g_inv
    ((gc.g' t_prev1 *. (sf2 /. f1))
    +. (gc.beta *. ((sf1 /. f1) -. t_prev1)))

let sequence gc d ~t1 =
  let raw =
    let rec step (prev2, prev1) () =
      let t = next gc d ~t_prev2:prev2 ~t_prev1:prev1 in
      Seq.Cons (t, step (prev1, t))
    in
    fun () -> Seq.Cons (t1, step (0.0, t1))
  in
  Sequence.sanitize ~support:d.Dist.support raw

(* [expected_cost] truncates the series once the tail mass drops below
   [tail_eps] or after [max_terms] terms. *)
let tail_eps = 1e-16
let max_terms = 100_000

let expected_cost gc d s =
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc (gc.beta *. d.Dist.mean);
  let rec go i t_prev sf_prev s =
    if i > max_terms then ()
    else
      match Seq.uncons s with
      | None -> ()
      | Some (t_next, rest) ->
          Numerics.Kahan.add acc
            ((gc.g t_next +. (gc.beta *. t_prev)) *. sf_prev);
          let sf_next = Dist.sf d t_next in
          if sf_next < tail_eps then () else go (i + 1) t_next sf_next rest
  in
  go 0 0.0 1.0 s;
  Numerics.Kahan.sum acc

let search ?(m = 1000) gc d ~upper =
  let a = Dist.lower d in
  let step = (upper -. a) /. float_of_int m in
  let best_t1 = ref nan and best = ref infinity in
  for i = 1 to m do
    let t1 = a +. (float_of_int i *. step) in
    (* Validate monotonicity over the bulk of the mass, as in the
       affine brute force. *)
    let seq = sequence gc d ~t1 in
    let prefix =
      Sequence.prefix_until ~limit:1000
        (fun t -> Dist.sf d t < 1e-9)
        seq
    in
    let valid = ref (Array.length prefix > 0) in
    for j = 1 to Array.length prefix - 1 do
      if prefix.(j) <= prefix.(j - 1) then valid := false
    done;
    (* Reject candidates whose raw recurrence broke (sanitize fell
       back to doubling inside the mass region would still be
       increasing, so additionally check the raw next value). *)
    if !valid then begin
      let c = expected_cost gc d seq in
      if Float.is_finite c && c < !best then begin
        best := c;
        best_t1 := t1
      end
    end
  done;
  if Float.is_nan !best_t1 then
    invalid_arg "Convex_cost.search: no valid candidate";
  (!best_t1, !best)
