(** Ablation: sensitivity of the discretization heuristics to the
    truncation quantile [eps] (Sect. 4.2.1 fixes [eps = 1e-7] without
    discussion).

    Too large an [eps] cuts off real tail mass — jobs beyond the
    truncation point pay the doubling-extension penalty; too small an
    [eps] stretches the lattice over an enormous range, starving the
    bulk of the distribution of resolution under EQUAL-TIME. The sweep
    measures both effects with the exact evaluator. *)

type t = {
  epss : float array;
  rows : (string * float array * float array) list;
      (** distribution, equal-time / equal-probability exact
          normalized costs per eps. *)
}

val run : ?cfg:Config.t -> ?epss:float array -> ?n:int -> unit -> t
(** Sweeps the unbounded-support Table 1 distributions (truncation is
    a no-op on bounded supports) at discretization size [n] (default
    the paper's 1000). *)

val to_string : t -> string

val sanity : t -> (string * bool) list
(** Checks the paper's setting is adequate: for every distribution,
    [eps = 1e-7] is within 10 % of the best sweep point. *)
