(** Triangular distribution [Triangular(a, c, b)] on [[a, b]] with
    mode [c].

    The classic "three-point estimate" execution-time model (minimum /
    most-likely / maximum), fully closed-form — a useful bounded
    companion to Uniform and Beta for the bounded-support solvers. *)

(* stochlint: allow UNUSED_EXPORT — test_extended_distributions builds off-default instances *)
val make : a:float -> c:float -> b:float -> Dist.t
(** [make ~a ~c ~b] requires [0 <= a <= c <= b] with [a < b].
    @raise Invalid_argument otherwise. *)

val default : Dist.t
(** [Triangular(5.0, 8.0, 20.0)] — a right-skewed bounded law of
    Table 1-like scale. *)
