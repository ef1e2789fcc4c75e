(** Shifted exponential distribution on [[location, inf)]:
    [X = location + Exp(rate)].

    Models jobs with an incompressible minimum running time plus a
    memoryless random tail — the simplest nonzero-lower-bound law with
    every quantity in closed form, useful both as an execution-time
    model and as a test fixture for the [a > 0] code paths. *)

(* stochlint: allow UNUSED_EXPORT — test_extended_distributions builds off-default instances *)
val make : location:float -> rate:float -> Dist.t
(** [make ~location ~rate] requires [location >= 0] and [rate > 0].
    @raise Invalid_argument otherwise. *)

val default : Dist.t
(** [ShiftedExp(2.0, 1.0)]. *)
