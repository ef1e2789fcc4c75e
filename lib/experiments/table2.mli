(** Table 2: normalized expected costs of the seven heuristics under
    the nine Table 1 distributions, RESERVATIONONLY scenario.

    For each (strategy, distribution) pair the strategy's sequence is
    built with the paper's parameters and its cost estimated by
    Monte-Carlo over fresh samples, normalized by the omniscient cost
    [E^o]. The paper's bracketed values — each heuristic's cost
    relative to BRUTE-FORCE — are reproduced as well. *)

type row = {
  dist_name : string;
  values : float array;  (** One normalized cost per strategy. *)
}

type t = {
  strategy_names : string array;
  rows : row list;
}

val strategies : Config.t -> Stochastic_core.Strategy.t list
(** The seven Table 2 strategies instantiated with the given
    parameters, in column order (BRUTE-FORCE first) — shared with the
    Fig. 4 sweep. *)

val scores :
  ?cost:Stochastic_core.Cost_model.t ->
  stream:string ->
  Config.t ->
  Stochastic_core.Strategy.t list ->
  Distributions.Dist.t ->
  float array
(** [scores ~stream cfg strategies d] is each strategy's normalized
    expected cost on [d] (default RESERVATIONONLY), all scored on one
    sorted sample set drawn from [stream] (common random numbers).
    The row builder of Table 2, {!Table2x} and Fig. 4. *)

val evaluate :
  label:string ->
  Config.t ->
  Stochastic_core.Strategy.t list ->
  (string * Distributions.Dist.t) list ->
  t
(** One row of {!scores} per law, drawn from stream ["label/law"]. *)

val run : ?cfg:Config.t -> unit -> t
(** [run ()] executes the full experiment (paper parameters by
    default; expect tens of seconds). *)

val to_string : t -> string
(** Renders the table with the relative-to-BRUTE-FORCE values in
    brackets, like the paper. *)

val sanity : t -> (string * bool) list
(** [sanity t] evaluates the qualitative claims the paper draws from
    this table: every ratio is below the AWS RI/OD price factor 4
    (Weibull's heavy tail is allowed a small Monte-Carlo margin), and
    BRUTE-FORCE is within noise of the best strategy on every row.
    Returns labelled checks for the test suite. *)
