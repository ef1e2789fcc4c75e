(** Deterministic, seeded per-node failure traces.

    Feeds the engine's [Node_down]/[Node_up] events. Each node owns an
    independent random stream split off the configured seed, so a
    node's failure trace is a pure function of [(config, node index)]:
    traces are reproducible bit-for-bit regardless of how the engine
    interleaves events, and a rerun with the same seed replays the
    identical fault schedule.

    Three interarrival models, all normalised so the {e mean} uptime
    equals the configured MTBF:
    - {!exponential} — memoryless node crashes (classic MTBF model);
    - {!weibull} — ageing ([shape > 1]) or infant-mortality
      ([shape < 1]) hazard;
    - {!spot} — bursty spot/preemptible revocations: a hyperexponential
      mixture where a [burst_prob] fraction of gaps are
      [burst_factor] times shorter, clustering reclaims in time. *)

type model =
  | Exponential of { mtbf : float }
  | Weibull of { mtbf : float; shape : float }
  | Spot of { mtbf : float; burst_prob : float; burst_factor : float }

type config = { model : model; mean_repair : float; seed : int }

val exponential : mtbf:float -> model
(** [mtbf = infinity] means the node never fails (failure rate 0).
    @raise Invalid_argument if [mtbf <= 0] or NaN. *)

val weibull : mtbf:float -> shape:float -> model
(** @raise Invalid_argument on non-positive [mtbf] or [shape]. *)

val spot : ?burst_prob:float -> ?burst_factor:float -> mtbf:float -> unit -> model
(** Defaults: [burst_prob = 0.2], [burst_factor = 10].
    @raise Invalid_argument if [burst_prob] is outside [[0, 1)] or
    [burst_factor < 1]; the message names the field, its value and
    the constraint ["Faults.spot: field = value: detail"]. *)

val make : ?seed:int -> ?mean_repair:float -> model -> config
(** Defaults: [seed = 42], [mean_repair = 0.1] (hours; exponential
    repair, [0] = instant).
    @raise Invalid_argument on negative [mean_repair]. *)

val mtbf : config -> float
(** The configured mean time between failures (may be [infinity]). *)

val model_name : config -> string

type t
(** Mutable per-node draw state (one stream per node). *)

val create : config -> nodes:int -> t
(** @raise Invalid_argument if [nodes <= 0]. *)

val uptime : t -> node:int -> float
(** Next time-to-failure for [node]; [infinity] when the node never
    fails (no draw is consumed in that case).
    @raise Invalid_argument on an out-of-range node. *)

val downtime : t -> node:int -> float
(** Repair duration for [node]'s current outage. *)

(* stochlint: allow UNUSED_EXPORT — test_faults pins per-node failure traces and their determinism *)
val trace : t -> node:int -> horizon:float -> (float * float) list
(** [(down_at, back_at)] outages of [node] up to [horizon], consuming
    the node's stream — diagnostics and property tests.
    @raise Invalid_argument on a non-positive or infinite horizon. *)
