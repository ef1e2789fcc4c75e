(** Shared experiment parameters.

    The defaults are the paper's settings (Sect. 5.1–5.2):
    [m = 5000] brute-force candidates, [n_mc = 1000] Monte-Carlo
    samples, [disc_n = 1000] discretization points, truncation
    [eps = 1e-7]. The [quick] preset shrinks everything for unit tests
    and CI smoke runs. *)

type t = {
  m : int;  (** BRUTE-FORCE grid size. *)
  n_mc : int;  (** Monte-Carlo sample count per evaluation. *)
  disc_n : int;  (** Discretization sample count. *)
  eps : float;  (** Truncation quantile parameter. *)
  seed : int;  (** Root seed for all random streams. *)
}

val paper : t
(** The paper's parameters. *)

val quick : t
(** Reduced parameters ([m = 300], [n_mc = 400], [disc_n = 200]) for
    fast runs. *)

val rng_for : t -> string -> Randomness.Rng.t
(** [rng_for cfg label] derives a deterministic, label-specific random
    stream from the root seed, so experiments do not perturb each
    other's randomness when reordered. *)
