type assignment = {
  plan : Spot_cost.plan;
  cost : float;
  on_demand_cost : float;
  all_spot_cost : float;
  evaluated : int;
  states : int;
}

(* A chunked ladder: the same reservation length repeated until the
   truncation point is covered in durable progress. Only meaningful
   under snapshot recovery (with restart semantics an expired flat
   chunk makes no progress and the ladder never advances). *)
let ladder_lengths regime ~upper chunk =
  match regime.Spot_cost.recovery with
  | Spot_cost.Restart -> None
  | Spot_cost.Snapshot { period; snapshot_cost; restore_cost } ->
      let stride = period +. snapshot_cost in
      if chunk < restore_cost +. stride then None
      else
        let snaps = Attempt.snapshots_by ~stride ~restore:restore_cost ~cap:max_int chunk in
        let useful = period *. Float.of_int snaps in
        if useful <= 0.0 then None
        else
          let n = int_of_float (ceil (upper /. useful)) in
          let n = max 1 (min n 1024) in
          Some (Array.make n chunk)

(* Chunk-size grid: a few scales around the revocation MTBF and the
   checkpoint stride — each one candidate plan, scored like any other. *)
let chunk_grid regime ~upper =
  match regime.Spot_cost.recovery with
  | Spot_cost.Restart -> []
  | Spot_cost.Snapshot { period; snapshot_cost; restore_cost } ->
      let stride = restore_cost +. (4.0 *. (period +. snapshot_cost)) in
      let rate = regime.Spot_cost.revocation_rate in
      let mtbf = if rate > 0.0 then 1.0 /. rate else upper in
      [ stride; 2.0 *. stride; mtbf /. 2.0; mtbf; 2.0 *. mtbf ]
      |> List.filter (fun c -> Float.is_finite c && c > 0.0 && c <= 4.0 *. upper)
      |> List.sort_uniq compare

(* Greedy single-slot flip passes [assign] runs at most. *)
let passes = 2

let assign ?(disc_n = 500) ?(eps = 1e-8) regime m d lengths =
  let scorer = Spot_cost.scorer ~disc_n ~eps regime m d in
  let n = Array.length lengths in
  let evaluated = ref 0 in
  let states = ref 0 in
  let score plan =
    let s = scorer plan in
    incr evaluated;
    states := !states + s.Spot_cost.states;
    (plan, s.Spot_cost.cost)
  in
  let score_tiers tiers = score (Spot_cost.make_plan ~lengths ~tiers) in
  let threshold i =
    Array.init n (fun k -> if k < i then Spot_cost.Spot else Spot_cost.On_demand)
  in
  let od_plan, od_cost = score_tiers (threshold 0) in
  let spot_plan, spot_cost = score_tiers (threshold n) in
  let best = ref (od_plan, od_cost) in
  let best_od = ref od_cost in
  let consider (plan, cost) =
    if cost < snd !best then best := (plan, cost);
    if Spot_cost.spot_slots plan = 0 && cost < !best_od then best_od := cost
  in
  consider (spot_plan, spot_cost);
  for i = 1 to n - 1 do
    consider (score_tiers (threshold i))
  done;
  (* Chunked ladders: flat repeated reservations that lean on snapshot
     recovery instead of escalating lengths — the shape that lets spot
     capacity win when reservations in the base head dwarf the MTBF.
     Scored on both tiers so the on-demand floor sees them too. *)
  let upper = Discretize.truncation_point ~eps d in
  List.iter
    (fun chunk ->
      match ladder_lengths regime ~upper chunk with
      | None -> ()
      | Some rungs ->
          let spot_rungs = score (Spot_cost.uniform_plan Spot_cost.Spot rungs) in
          consider spot_rungs;
          consider (score (Spot_cost.uniform_plan Spot_cost.On_demand rungs));
          (* Mixed ladders: spot prefix, on-demand tail — useful when
             the job-size tail should not keep gambling on revocation. *)
          let k = Array.length rungs in
          if k >= 4 then
            List.iter
              (fun frac ->
                let cut = max 1 (min (k - 1) (k * frac / 4)) in
                let tiers =
                  Array.init k (fun i ->
                      if i < cut then Spot_cost.Spot else Spot_cost.On_demand)
                in
                consider (score (Spot_cost.make_plan ~lengths:rungs ~tiers)))
              [ 1; 2; 3 ])
    (chunk_grid regime ~upper);
  (* Greedy refinement of the winner: flip one slot at a time, keep
     strict improvements. Bounded to plans small enough that a pass is
     cheap; ladder winners skip it (their slots are interchangeable). *)
  let plan0 = fst !best in
  let k0 = Array.length plan0.Spot_cost.lengths in
  if k0 <= 64 && Spot_cost.strictly_increasing plan0 then begin
    let tiers = Array.copy plan0.Spot_cost.tiers in
    let flip_lengths = plan0.Spot_cost.lengths in
    let improved = ref true in
    let pass = ref 0 in
    while !improved && !pass < passes do
      improved := false;
      incr pass;
      for k = 0 to k0 - 1 do
        let flipped = Array.copy tiers in
        flipped.(k) <-
          (match tiers.(k) with
          | Spot_cost.Spot -> Spot_cost.On_demand
          | Spot_cost.On_demand -> Spot_cost.Spot);
        let cand = score (Spot_cost.make_plan ~lengths:flip_lengths ~tiers:flipped) in
        if snd cand < snd !best then begin
          consider cand;
          tiers.(k) <- flipped.(k);
          improved := true
        end
      done
    done
  end;
  let plan, cost = !best in
  {
    plan;
    cost;
    on_demand_cost = !best_od;
    all_spot_cost = spot_cost;
    evaluated = !evaluated;
    states = !states;
  }
