type pricing = { reserved_hourly : float; on_demand_hourly : float }

let make_pricing ~reserved_hourly ~on_demand_hourly =
  if reserved_hourly <= 0.0 || on_demand_hourly <= 0.0 then
    invalid_arg "Cloud.make_pricing: prices must be positive";
  { reserved_hourly; on_demand_hourly }

let reserved_cost p ~expected_reservation_hours =
  p.reserved_hourly *. expected_reservation_hours

let on_demand_cost p d = p.on_demand_hourly *. d.Distributions.Dist.mean

type verdict = {
  reserved_total : float;
  on_demand_total : float;
  advantage : float;
  use_reserved : bool;
}

let compare_strategies p d ~normalized_cost =
  (* Under RESERVATIONONLY, E^o = E(X), so the strategy's expected
     reserved hours are normalized_cost * E(X). *)
  let reserved_total =
    reserved_cost p
      ~expected_reservation_hours:(normalized_cost *. d.Distributions.Dist.mean)
  in
  let on_demand_total = on_demand_cost p d in
  let advantage = on_demand_total /. reserved_total in
  { reserved_total; on_demand_total; advantage; use_reserved = advantage >= 1.0 }
