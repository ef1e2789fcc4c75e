type solution = { s1 : float; e1 : float }

(* The minimum over s1 in (1e-6, 2] of E_1(s1), the Eq. (4) cost of the
   sanitized recurrence sequence from s1 (Recurrence.sequence) for
   Exp(1) under ReservationOnly: an 8,000-point grid with a
   golden-section polish. test_recurrence_oracle recomputes it and pins
   these bits. *)
let solution = { s1 = 0x1.7e3ac14a391d2p-1; e1 = 0x1.2ea7dce7e84fdp+1 }

let solve () = solution

let expected_cost ~rate =
  if rate <= 0.0 then invalid_arg "Exponential_opt.expected_cost: rate must be > 0";
  solution.e1 /. rate
