(** One-dimensional minimisation.

    Used by the BRUTE-FORCE heuristic (grid search over the first
    reservation length, Sect. 4.1 of the paper) and by the Exp(1)
    characterisation of Proposition 2 (golden-section refinement of
    [s1]). *)

type result = {
  xmin : float;  (** Arg-min found. *)
  fmin : float;  (** Objective value at [xmin]. *)
  evaluations : int;  (** Number of objective evaluations performed. *)
}

val golden_section : ?tol:float -> (float -> float) -> float -> float -> result
(** [golden_section f a b] minimises a unimodal [f] on [[a, b]] by
    golden-section search. [tol] (default [1e-10]) bounds the final
    bracket width relative to the scale of [x]; the search stops after
    200 steps if it is out of reach. *)

val brent_min : ?tol:float -> (float -> float) -> float -> float -> result
(** [brent_min f a b] minimises [f] on [[a, b]] with Brent's parabolic
    interpolation method, falling back to golden-section steps. Faster
    than {!golden_section} on smooth objectives. Stops after 200
    iterations if [tol] (default [1e-10]) is out of reach. *)

val grid :
  ?refine:bool -> n:int -> (float -> float) -> float -> float -> result
(** [grid ~n f a b] evaluates [f] at the [n] points
    [a + m*(b-a)/n], [m = 1..n] — exactly the BRUTE-FORCE sampling of
    the paper — and returns the best. Points where [f] returns [nan] or
    [infinity] are skipped (the paper discards first-reservation
    candidates whose recurrence is not strictly increasing). If
    [refine] is [true] (default), a golden-section pass over the two
    grid cells surrounding the best point polishes the result.
    @raise Invalid_argument if [n <= 0] or every point was invalid. *)
