module Dist = Distributions.Dist

type evaluator =
  | Monte_carlo of { rng : Randomness.Rng.t; n : int }
  | Exact

type result = {
  t1 : float;
  cost : float;
  normalized : float;
  sequence : Sequence.t;
  candidates : int;
  valid : int;
}

type scan = {
  best : (float * float) option;
  candidates : int;
  valid : int;
  underflow : int;
  non_increasing : int;
  non_finite : int;
  too_long : int;
  failed : int;
  bounded : int;
}

let default_m = 5000
let default_n = 1000

let default_evaluator () = Monte_carlo { rng = Randomness.Rng.create (); n = default_n }

let scoring evaluator d =
  match evaluator with
  | Exact -> Expected_cost.Series
  | Monte_carlo { rng; n } -> Expected_cost.sample (Dist.samples d rng n)

(* The i-th of m grid points on (lo, hi]. *)
let t1_at ~lo ~hi ~m i = lo +. (float_of_int i *. ((hi -. lo) /. float_of_int m))

(* A computed cost stays within about 18 ulps (2e-15 relative) of the
   bound below it; DESIGN.md 3.4 derives this from the rounding of the
   Neumaier sums. The margin keeps 500 times that in reserve. *)
let margin = 1e-12

(* The scan stops at the first point whose first-reservation bound
   exceeds the incumbent by more than [margin]: the grid ascends in t1
   and the incumbent only falls, so no later point could win. *)
let scan ?(charge = fun () -> true) scoring cost d ~lo ~hi ~m =
  let score = Recurrence.score cost d in
  let bound = Expected_cost.first_reservation_bound scoring cost d in
  let rec go s i =
    if i > m then s
    else
      let t1 = t1_at ~lo ~hi ~m i in
      match s.best with
      | Some (_, b) when bound t1 > b *. (1.0 +. margin) ->
          { s with candidates = m; bounded = m - i + 1 }
      | _ when not (charge ()) -> s
      | _ ->
          let s = { s with candidates = i } in
          let s =
            match score scoring ~t1 with
            | Ok (_, Ok c) when Float.is_finite c ->
                let better = match s.best with Some (_, b) -> c < b | None -> true in
                { s with valid = s.valid + 1; best = (if better then Some (t1, c) else s.best) }
            | Ok _ | Error (Unsupported_t1 _) -> { s with failed = s.failed + 1 }
            | Error (Density_underflow _) -> { s with underflow = s.underflow + 1 }
            | Error (Non_increasing _) -> { s with non_increasing = s.non_increasing + 1 }
            | Error (Non_finite _) -> { s with non_finite = s.non_finite + 1 }
            | Error (Too_long _) -> { s with too_long = s.too_long + 1 }
          in
          go s (i + 1)
  in
  go
    { best = None; candidates = 0; valid = 0; underflow = 0; non_increasing = 0;
      non_finite = 0; too_long = 0; failed = 0; bounded = 0 }
    1

let search ?(m = default_m) ?(evaluator = default_evaluator ()) cost d =
  let scoring = scoring evaluator d in
  let lo, hi = Bounds.search_interval cost d in
  match scan scoring cost d ~lo ~hi ~m with
  | { best = None; _ } -> invalid_arg "Brute_force.search: no valid candidate sequence found"
  | { best = Some (t1, c); candidates; valid; _ } ->
      let normalized = Expected_cost.normalized cost d ~cost:c in
      let sequence = Recurrence.sequence cost d ~t1 in
      { t1; cost = c; normalized; sequence; candidates; valid }

let cost_at score scoring t1 =
  match score scoring ~t1 with
  | Ok (_, Ok c) -> Some c
  | Ok (_, Error e) -> raise e
  | Error _ -> None

let profile ?(m = default_m) ?(evaluator = default_evaluator ()) cost d =
  let scoring = scoring evaluator d in
  let lo, hi = Bounds.search_interval cost d in
  let score = Recurrence.score cost d in
  Array.init m (fun i ->
      let t1 = t1_at ~lo ~hi ~m (i + 1) in
      let normalized c = Expected_cost.normalized cost d ~cost:c in
      (t1, Option.map normalized (cost_at score scoring t1)))

let cost_of_t1 ?(evaluator = default_evaluator ()) cost d t1 =
  cost_at (Recurrence.score cost d) (scoring evaluator d) t1
