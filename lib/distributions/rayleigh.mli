(** Rayleigh distribution [Rayleigh(sigma)] on [[0, inf)] — the
    [Weibull(sigma sqrt 2, 2)] special case, provided under its usual
    name and parameterisation. *)

(* stochlint: allow UNUSED_EXPORT — test_extended_distributions builds off-default instances *)
val make : sigma:float -> Dist.t
(** [make ~sigma] has mode [sigma] and mean [sigma sqrt(pi/2)].
    @raise Invalid_argument if [sigma <= 0.]. *)

val default : Dist.t
(** [Rayleigh(2.0)]. *)
