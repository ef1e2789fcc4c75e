(** Cloud pricing model: Reserved Instances vs On-Demand (Sect. 5.2).

    Amazon-AWS-style pricing offers a Reserved-Instance (RI) hourly
    price [c_RI] for capacity requested in advance and a flexible
    On-Demand (OD) price [c_OD], with [c_OD / c_RI] up to about 4. A
    reservation strategy [S] beats running on demand exactly when
    [c_RI * E(S) <= c_OD * E^o], i.e. when the normalized cost of [S]
    is below the price ratio. *)

type pricing = {
  reserved_hourly : float;  (** RI price per hour of reservation. *)
  on_demand_hourly : float;  (** OD price per hour of actual use. *)
}

val make_pricing : reserved_hourly:float -> on_demand_hourly:float -> pricing
(** @raise Invalid_argument unless both prices are positive. *)

type verdict = {
  reserved_total : float;  (** Expected RI cost per job. *)
  on_demand_total : float;  (** Expected OD cost per job. *)
  advantage : float;
      (** [on_demand_total / reserved_total]; [> 1.] means reservations
          win. *)
  use_reserved : bool;
}

val compare_strategies :
  pricing ->
  Distributions.Dist.t ->
  normalized_cost:float ->
  verdict
(** [compare_strategies p d ~normalized_cost] decides RI vs OD for a
    reservation strategy with the given normalized expected cost
    [E(S)/E^o] under the RESERVATIONONLY model (Sect. 5.2's
    criterion). *)
