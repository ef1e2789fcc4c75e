(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256++ generator seeded through splitmix64,
    so that every experiment in this repository is exactly reproducible
    from a single integer seed and independent streams can be split off
    for parallel or per-experiment use. The OCaml [Random] module is
    deliberately not used: its algorithm changed between compiler
    releases, which would silently change published numbers. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] builds a generator. The default seed is a fixed
    constant so that all tools are reproducible out of the box. *)

val copy : t -> t
(** [copy t] is an independent generator with identical current state:
    both will produce the same future stream. Used for common-random-
    number variance reduction when comparing strategies. *)

val split : t -> t
(** [split t] derives a new generator from [t] whose stream is
    (statistically) independent of the remainder of [t]'s stream; [t]
    advances. Used to give each sub-experiment its own stream. *)

(* stochlint: allow UNUSED_EXPORT — test_rng pins stream determinism, copies and splits on raw draws *)
val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [[0, 1)), with 53 random mantissa bits. *)

val float_open : t -> float
(** [float_open t] is uniform on the open interval [(0, 1)); never
    returns [0.], making it safe for [log] and quantile transforms. *)

val uniform : t -> float -> float -> float
(** [uniform t a b] is uniform on [[a, b)).
    @raise Invalid_argument if [a > b]. *)

val int : t -> int -> int
(** [int t n] is uniform on [[0, n-1]] (unbiased, via rejection).
    @raise Invalid_argument if [n <= 0]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
