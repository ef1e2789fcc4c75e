module Dist = Distributions.Dist

type stop =
  | Unsupported_t1 of float
  | Density_underflow of { t : float; survival : float }
  | Non_finite of { t_prev : float; next : float }
  | Non_increasing of { t_prev : float; next : float }
  | Too_long of int

let coverage = 1.0 -. 1e-9
let max_len = 1000

(* Eq. (11) divides by f t_(i-1): deep in the tail the density
   underflows to 0 before the CDF reaches the coverage target (heavy
   tails, near-point masses), which would propagate inf/nan. *)
let underflows f = f <= 0.0 || Float.is_nan f

(* Eq. (11) from the survival at t_(i-2), and t = t_(i-1) with its
   survival and density; [nan] where the density underflows. *)
let eq11 (m : Cost_model.t) ~sf2 ~t ~sf ~f =
  if underflows f then nan
  else (sf2 /. f) +. (m.beta /. m.alpha *. ((sf /. f) -. t)) -. (m.gamma /. m.alpha)

let next m d ~t_prev2 ~t_prev1 =
  eq11 m ~sf2:(Dist.sf d t_prev2) ~t:t_prev1 ~sf:(Dist.sf d t_prev1) ~f:(d.Dist.pdf t_prev1)

(* The kernel's verdict walk: raw points from [t1] until one covers
   [coverage] or reaches [b], stopping typed at the first bad one. Each
   point costs one [pdf] and one [cdf] call, its survival carried
   forward as [sf] and then [sf2]. [Ok] holds the raw points visited,
   newest first, each with its predecessor and survival, and the state
   a scorer continues the walk from. *)
let judge m d ~sf0 ~t1 =
  let b = Dist.upper d in
  if not (Float.is_finite t1) || t1 <= Dist.lower d || t1 > b then
    Error (Unsupported_t1 t1)
  else
    let rec go points len sf2 t sf c =
      if c >= coverage || t >= b then Ok (points, sf2, t, sf)
      else if len >= max_len then Error (Too_long max_len)
      else
        let f = d.Dist.pdf t in
        let x = eq11 m ~sf2 ~t ~sf ~f in
        if underflows f then Error (Density_underflow { t; survival = sf })
        else if not (Float.is_finite x) then Error (Non_finite { t_prev = t; next = x })
        else if x <= t then Error (Non_increasing { t_prev = t; next = x })
        else
          let c = if x < b then d.Dist.cdf x else nan in
          let sfx = Dist.sf_of_cdf c in
          go ((t, x, sfx) :: points) (len + 1) sf x sfx c
    in
    let c1 = d.Dist.cdf t1 in
    let sf1 = Dist.sf_of_cdf c1 in
    go [ (0.0, t1, sf1) ] 1 sf0 t1 sf1 c1

let prefix d points =
  let b = Dist.upper d in
  Array.of_list (List.rev_map (fun (_, x, _) -> if x >= b then b else x) points)

(* The scorer reads [sequence m d ~t1]: the verdict's raw points while
   [Sequence.keeps] them, then the raw walk continued past them, then
   [Sequence.tail] from the first point it does not keep. *)
let score_walk m d scoring (points, sf2, t, sf) =
  let b = Dist.upper d and support = d.Dist.support in
  let sc = Expected_cost.scorer scoring m d in
  let take (prev, x, sf) =
    if Sequence.keeps ~support ~prev x then Expected_cost.feed sc x ~sf
    else begin
      Expected_cost.feed_seq sc (Sequence.tail ~support prev);
      false
    end
  in
  let rec extend sf2 t sf =
    let x = eq11 m ~sf2 ~t ~sf ~f:(d.Dist.pdf t) in
    let sfx = Dist.sf_of_cdf (if x > t && x < b then d.Dist.cdf x else nan) in
    if take (t, x, sfx) then extend sf x sfx
  in
  if List.for_all take (List.rev points) then extend sf2 t sf;
  Expected_cost.total sc

let score m d =
  let sf0 = Dist.sf d 0.0 in
  fun scoring ~t1 ->
    match judge m d ~sf0 ~t1 with
    | Error s -> Error s
    | Ok ((points, _, _, _) as walked) ->
        let cost = match score_walk m d scoring walked with c -> Ok c | exception e -> Error e in
        Ok (prefix d points, cost)

let generate m d ~t1 =
  Result.map (fun (points, _, _, _) -> prefix d points) (judge m d ~sf0:(Dist.sf d 0.0) ~t1)

let sequence m d ~t1 =
  let rec raw t_prev2 t_prev1 () =
    let t = next m d ~t_prev2 ~t_prev1 in
    Seq.Cons (t, raw t_prev1 t)
  in
  Sequence.sanitize ~support:d.Dist.support (fun () -> Seq.Cons (t1, raw 0.0 t1))
