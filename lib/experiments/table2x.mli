(** Extended Table 2: the seven paper strategies plus two quantile-
    ladder variants, evaluated on the beyond-the-paper distributions
    (log-logistic, Frechet, triangular, shifted exponential, Rayleigh,
    bimodal LogNormal mixture) under RESERVATIONONLY.

    This is the generality check a library user cares about: the
    qualitative story of Table 2 — the optimal-structure heuristics
    (BRUTE-FORCE and the discretization DPs) dominate the summary-
    statistic family — should survive on laws the paper never
    evaluated, including a multi-modal one where single-mode
    intuitions (start at the mean) are at their weakest. *)

type row = Table2.row = { dist_name : string; values : float array }
type t = Table2.t = { strategy_names : string array; rows : row list }

val run : ?cfg:Config.t -> unit -> t
val to_string : t -> string

val sanity : t -> (string * bool) list
(** BRUTE-FORCE / EQUAL-TIME / EQUAL-PROBABILITY within noise of the
    row optimum on every extended distribution. *)
