(** Ordinary least squares for affine models.

    The NEUROHPC scenario (Sect. 5.3 of the paper) needs the affine
    wait-time function of Fig. 2 — average queue wait as a function of
    the requested runtime — recovered from scheduler logs by curve
    fitting. This module implements the one-dimensional OLS fit
    [y ~= slope * x + intercept] with goodness-of-fit diagnostics. *)

type fit = {
  slope : float;  (** Fitted slope ([alpha] in the wait-time model). *)
  intercept : float;  (** Fitted intercept ([gamma] in the model). *)
  r_squared : float;  (** Coefficient of determination in [[0, 1]]. *)
  residual_std : float;  (** Standard deviation of the residuals. *)
  n : int;  (** Number of points used. *)
}

val ols : x:float array -> y:float array -> fit
(** [ols ~x ~y] fits [y ~= slope * x + intercept] by least squares.
    @raise Invalid_argument if the arrays differ in length, have fewer
    than two points, or [x] is constant. *)

