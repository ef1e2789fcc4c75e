(** Table 4: convergence of the discretization-based heuristics with
    the number of discrete samples.

    Runs EQUAL-TIME and EQUAL-PROBABILITY for
    [n = 10, 25, 50, 100, 250, 500, 1000] over the nine distributions
    and reports normalized Monte-Carlo costs; the paper's observation
    is that both schemes converge towards BRUTE-FORCE as [n] grows. *)

type t = {
  ns : int array;
  rows : (string * float array * float array) list;
      (** distribution, equal-time costs per n, equal-probability
          costs per n. *)
}

(* stochlint: allow UNUSED_EXPORT — test_dp and test_work_counts enumerate Table 4's DP solves from it (paper_solves) *)
val default_ns : int array
(** [|10; 25; 50; 100; 250; 500; 1000|]. *)

val run : ?cfg:Config.t -> ?ns:int array -> unit -> t
val to_string : t -> string

val sanity : t -> brute_force:(string -> float) -> (string * bool) list
(** [sanity t ~brute_force] checks that at the largest [n] each scheme
    is within a modest factor of the given BRUTE-FORCE reference cost
    for each distribution. *)
