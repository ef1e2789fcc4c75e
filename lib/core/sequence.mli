(** Reservation sequences and their cost on concrete job durations.

    A reservation sequence [S = (t1, t2, ...)] is represented as a lazy
    [float Seq.t] of strictly increasing positive reservation lengths.
    For a distribution with unbounded support the sequence must be
    infinite and tend to infinity; for bounded support [[a, b]] it must
    be finite and end with exactly [b] (Sect. 2.2 of the paper). The
    {!sanitize} combinator enforces both conventions on the output of
    any heuristic. *)

type t = float Seq.t

exception Not_covered of float
(** Raised by cost evaluation when a job duration exceeds every
    reservation in a (finite or stalled) sequence; carries the
    duration. *)

val of_list : float list -> t
(** [of_list ts] is the finite sequence [ts].
    @raise Invalid_argument if [ts] is not strictly increasing or
    contains a non-positive value. *)

val take : int -> t -> float list
(** [take n s] is the list of the first (at most) [n] elements. *)

val prefix_until : ?limit:int -> (float -> bool) -> t -> float array
(** [prefix_until stop s] materialises elements of [s] up to and
    including the first one satisfying [stop] (or the whole sequence if
    it is finite), but at most [limit] (default [100_000]) elements. *)

val is_strictly_increasing : int -> t -> bool
(** [is_strictly_increasing n s] checks the first [n] elements. *)

val sanitize : support:Distributions.Dist.support -> t -> t
(** [sanitize ~support s] makes a heuristic's raw output a well-formed
    reservation sequence: raw values while {!keeps} accepts them, then
    (at the first it rejects, or when [s] ends) {!tail} for good — the
    paper's "extended using other heuristics". *)

val keeps : support:Distributions.Dist.support -> prev:float -> float -> bool
(** [keeps ~support ~prev x]: [x] is finite, positive, above [prev]
    and, on [Bounded (a, b)], below [b - 1e-9 (b - a)] (a value that
    numerically reaches [b] is replaced by [b]). *)

val tail : support:Distributions.Dist.support -> float -> t
(** [tail ~support prev] follows [prev] once {!sanitize} has left its
    raw input: doubling forever on a half line, or [b] alone on
    [Bounded (_, b)] (nothing if [prev >= b]). *)

val max_steps : int
(** Reservations (100,000) {!cost_of_run} and the Monte-Carlo scorer of
    {!Expected_cost} walk before giving up with {!Not_covered}. *)

val cost_of_run : Cost_model.t -> t -> float -> int * float
(** [cost_of_run m s t] walks the sequence until the first [t_k >= t]
    and returns [(k, C(k, t))] per Eq. (2): the [k-1] failed
    reservations are paid in full ([alpha t_i + beta t_i + gamma]) and
    the successful one costs [alpha t_k + beta t + gamma].
    @raise Not_covered if the sequence ends (or {!max_steps} steps
    pass) before covering [t]. *)

val pp_prefix : int -> Format.formatter -> t -> unit
(** [pp_prefix n fmt s] prints up to [n] leading elements, followed by
    ["..."] if the sequence continues. *)
