(** Fig. 4: the NEUROHPC scenario — normalized expected costs of all
    heuristics on the VBMQA LogNormal under the HPC wait-time cost
    model, with the distribution's mean and standard deviation scaled
    by factors up to 10.

    The cost model is [(alpha = 0.95, beta = 1, gamma = 1.05)] (hours)
    and the base distribution has mean ~ 0.348 h and std ~ 0.072 h
    (Sect. 5.3); each sweep point re-instantiates the LogNormal from
    the scaled moments via footnote 4's inversion. *)

type point = {
  mean_hours : float;
  std_hours : float;
  values : float array;  (** Normalized cost per strategy. *)
}

type t = {
  strategy_names : string array;
  points : point list;
}

(* stochlint: allow UNUSED_EXPORT — test_dp and test_work_counts enumerate Fig. 4's DP solves from it (paper_solves) *)
val default_factors : float array
(** [|1.; 2.; 4.; 6.; 8.; 10.|] — scaling factors applied to both
    moments. *)

(* stochlint: allow UNUSED_EXPORT — test_dp and test_work_counts enumerate Fig. 4's DP solves from it (paper_solves) *)
val law : float -> Distributions.Dist.t
(** [law f] is the LogNormal job-length law of the point at scaling
    factor [f]: the VBMQA moments (Sect. 5.3) times [f], in hours. *)

val run : ?cfg:Config.t -> ?factors:float array -> unit -> t
val to_string : t -> string

val sanity : t -> (string * bool) list
(** The paper's headline claim: at every sweep point, BRUTE-FORCE,
    EQUAL-TIME and EQUAL-PROBABILITY are close to each other and
    clearly better than the mean/median family. *)
