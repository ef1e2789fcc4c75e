(** Injectable time source for the tracing layer.

    Spans read the clock only when a real sink is attached, so the
    disabled path never touches a timer at all. The default is
    [Sys.time] (process CPU seconds — monotone, dependency-free, and
    available everywhere the toolchain is); tests and the CLI's
    [--fake-clock] mode inject {!fake} instead, which makes trace files
    reproducible byte for byte. *)

type t = unit -> float
(** A clock is any function returning nondecreasing seconds. *)

val cpu : t
(** [Sys.time]: CPU seconds consumed by the process. Monotone and
    dependency-free; coarse, but spans are for attribution, not
    nanosecond timing (the bench harness measures overhead itself). *)

val wall : t
(** [Unix.gettimeofday]: wall-clock seconds. One read goes through the
    vDSO and costs about a tenth of a {!cpu} read, a [getrusage] system
    call (0.05 against 0.5 µs on a 2-vCPU VM). It is not monotone: a
    stepped system clock moves it, so a reader clamps differences at 0.
    The serve daemon times requests and deadlines with it. *)

val fake : ?start:float -> ?step:float -> unit -> t
(** [fake ()] is a deterministic clock that returns
    [start + k * step] on its [k]-th reading (defaults [0.] and
    [0.001]). Every reading advances it, so equal trace structure
    yields equal timestamps — the bit-for-bit golden-trace contract.
    @raise Invalid_argument on non-finite arguments or negative
    [step]. *)
