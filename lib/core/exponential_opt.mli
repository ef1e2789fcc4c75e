(** The exact RESERVATIONONLY characterisation for exponential
    distributions (Sect. 3.5, Proposition 2).

    For [X ~ Exp(1)] and cost [alpha = 1, beta = gamma = 0], the
    optimal sequence [(s_i)] satisfies [s_2 = e^(s_1)] and
    [s_i = e^(s_(i-1) - s_(i-2))] for [i >= 3], with expected cost

    {[ E_1 = s_1 + 1 + sum_(i>=1) e^(-s_i). ]}

    The optimal [s_1] (~ 0.74219 — about three quarters of the mean)
    is found numerically; by scale invariance the optimal sequence for
    [Exp(lambda)] is [t_i = s_i / lambda] with cost [E_1 / lambda]. *)

type solution = {
  s1 : float;  (** Optimal first reservation for [Exp(1)]. *)
  e1 : float;  (** Optimal expected cost [E_1] for [Exp(1)]. *)
}

val solve : unit -> solution
(** [solve ()] is [(s1, E1)]: the minimum over [s1] in [(1e-6, 2]] of
    the Eq. (4) cost of the sanitized recurrence sequence from [s1]
    ({!Recurrence.sequence}, whose doubling fallback takes over where
    floating-point error makes the recurrence stop increasing), found
    on an 8,000-point grid with golden-section polish and stored as a
    constant. *)

val expected_cost : rate:float -> float
(** [expected_cost ~rate] is the optimal expected cost [E_1 / rate]. *)
