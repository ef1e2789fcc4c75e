(** Table 3: the best first reservation [t1^bf] found by BRUTE-FORCE
    versus naive quantile guesses.

    For each distribution, reports [t1^bf] with its normalized cost,
    and the normalized cost of starting the optimal recurrence at
    [t1 = Q(0.25), Q(0.5), Q(0.75), Q(0.99)] instead — many of which
    yield invalid (non-increasing) sequences, printed as ["-"] like
    the paper. *)

type entry = { t1 : float; cost : float option }

type row = {
  dist_name : string;
  best : entry;  (** [t1^bf] and its (always present) cost. *)
  quantiles : entry array;  (** The four quantile candidates. *)
}

type t = row list

val run : ?cfg:Config.t -> unit -> t
val to_string : t -> string

val sanity : t -> (string * bool) list
(** Qualitative checks: [t1^bf]'s cost is at least as good as every
    valid quantile guess (within Monte-Carlo noise), and at least one
    distribution has invalid quantile candidates. *)
