(** Compensated floating-point summation.

    Plain left-to-right summation of [n] floats accumulates an error that
    grows like [n * eps]. The Kahan–Neumaier algorithm implemented here
    keeps a running compensation term so that the error stays at a small
    multiple of [eps], independent of [n]. All Monte-Carlo estimators and
    expected-cost series in this project accumulate through this module. *)

type t
(** A mutable compensated accumulator. *)

val create : unit -> t
(** [create ()] is a fresh accumulator holding [0.0]. *)

val add : t -> float -> unit
(** [add acc x] adds [x] to the accumulator using Neumaier's variant of
    Kahan summation (robust even when [x] is larger than the running
    sum). *)

val sum : t -> float
(** [sum acc] is the current compensated value of the accumulator. *)

val parts : t -> float * float
(** [parts acc] is the running sum and its compensation, whose sum is
    {!sum}: prefix sums kept as both parts let a difference of two
    prefixes keep the compensated digits. *)

val sum_array : float array -> float
(** [sum_array a] is the compensated sum of all elements of [a]. *)

val mean_array : float array -> float
(** [mean_array a] is the compensated arithmetic mean of [a].
    @raise Invalid_argument if [a] is empty. *)

