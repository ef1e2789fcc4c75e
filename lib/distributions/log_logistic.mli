(** Log-Logistic distribution [LogLogistic(scale, shape)] on
    [[0, inf)].

    CDF [F(t) = 1 / (1 + (t/scale)^-shape)] — a heavy-tailed law with
    closed-form quantiles, widely used for service and repair times;
    a natural execution-time model beyond the paper's Table 1. The
    conditional expectation has a closed form through the incomplete
    beta function:
    [E(X | X > tau) = scale (B(a, b) - B(F tau; a, b)) / (1 - F tau)]
    with [a = 1 + 1/shape], [b = 1 - 1/shape]. *)

(* stochlint: allow UNUSED_EXPORT — test_extended_distributions builds off-default instances *)
val make : scale:float -> shape:float -> Dist.t
(** [make ~scale ~shape] requires [shape > 2] so that both the mean
    and the variance are finite (as the solvers assume).
    @raise Invalid_argument otherwise. *)

val default : Dist.t
(** [LogLogistic(2.0, 3.0)] — comparable scale to Table 1's heavy
    tails. *)
