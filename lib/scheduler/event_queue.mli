(** Binary-heap event queue keyed on simulated time.

    The priority queue at the heart of the discrete-event engine.
    Entries are ordered by [(time, insertion index)] lexicographically,
    so ties between simultaneous events are broken by scheduling order
    — a requirement for the simulator to be bit-for-bit deterministic
    under a fixed {!Randomness.Rng} seed. *)

type 'a t
(** Mutable min-heap of ['a] payloads. *)

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** [push q ~time e] schedules [e] at [time].
    @raise Invalid_argument if [time] is not finite. *)

val pop : 'a t -> (float * 'a) option
(** [pop q] removes and returns the earliest event, or [None] when the
    queue is empty. Among equal times, events come out in the order
    they were pushed. *)

