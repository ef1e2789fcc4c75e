(** Ablation: BRUTE-FORCE sensitivity to its two resolution parameters
    (grid size [M], Monte-Carlo samples [N]) — the design choices of
    Sect. 4.1 — plus a direct measurement of the {e selection
    optimism} of the MC evaluator.

    For each configuration, the winning sequence is re-evaluated with
    the deterministic Eq. (4) series, so the reported quality is
    unbiased; [optimism] is the amount by which the noisy MC estimate
    that won the grid search undershoots the true expected cost of the
    winner (min-of-noisy-estimates bias). This quantifies the
    deviation between this repository's Table 2 BRUTE-FORCE column and
    the paper's (see EXPERIMENTS.md). *)

type point = {
  m : int;  (** Grid size used. *)
  n : int;  (** MC samples used. *)
  exact_normalized : float;  (** True cost of the winner, / E^o. *)
  optimism : float;
      (** [(exact_cost(winner) - mc_estimate(winner)) / E^o] — the
          selection bias of minimising noisy estimates, >= 0 in
          expectation, in omniscient-normalized units. *)
}

type t = {
  dist_name : string;
  m_sweep : point array;  (** Varying M at the paper's N = 1000. *)
  n_sweep : point array;  (** Varying N at the paper's M = 5000. *)
}

val run :
  ?cfg:Config.t ->
  ?ms:int array ->
  ?ns:int array ->
  ?dists:(string * Distributions.Dist.t) list ->
  unit ->
  t list
(** [run ()] sweeps the default grids over Exponential, Weibull and
    LogNormal (the light-, heavy- and the paper's headline tail). *)

val to_string : t list -> string

val sanity : t list -> (string * bool) list
(** Checks that quality is monotone-ish in M (the largest M is within
    2 % of the best observed) and that the measured optimism is
    nonnegative up to MC noise. *)
