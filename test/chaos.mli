(** Deterministic chaos harness: seeded fault injection for the
    daemon's crash-safety contract.

    All faults draw from one seeded stream ({!Randomness.Rng}), so a
    chaos run replays exactly from its seed — the property that lets
    [test_chaos] assert {e bit-identical} journal recovery rather than
    mere survival. Injectors cover the faults the robustness layer
    claims to survive:

    - {!wrap_recv}/{!wrap_send} — a client vanishing mid-request
      (recv dries up) or mid-response (send raises {!Injected}, the
      in-process stand-in for [EPIPE]);
    - {!clock} — forward leaps and small backward steps on an
      otherwise sane clock source;
    - {!flaky}/{!with_retries} — EINTR-style transient errors and a
      bounded retry loop around them;
    - {!tear_file} — journal damage as a crash mid-write would leave
      it: a truncated tail or one flipped bit.

    Every injection is counted by kind ({!count}), so tests can
    assert faults actually fired instead of passing vacuously. *)

exception Injected of string
(** A simulated I/O failure. Transport and retry wrappers raise it;
    nothing else in the repo does, so tests can match it exactly. *)

type t

val create :
  ?p_disconnect:float ->
  ?p_clock_jump:float ->
  ?p_transient:float ->
  seed:int ->
  unit ->
  t
(** Fault probabilities all default to [0.] — an injector that never
    fires, useful as a control arm.
    @raise Invalid_argument on a probability outside [[0, 1]]. *)

val wrap_recv : t -> (unit -> string option) -> unit -> string option
(** With probability [p_disconnect], returns [None] (client vanished
    mid-stream) instead of pulling the next line. *)

val wrap_send : t -> (string -> unit) -> string -> unit
(** With probability [p_disconnect], raises {!Injected} — the
    transport loop must treat it like [EPIPE] and survive. *)

val clock : t -> Stochobs.Clock.t -> Stochobs.Clock.t
(** Wrap a clock with seeded jumps: forward by up to an hour, or
    (every third jump) backwards by up to a second. Readings are
    clamped at [0.]; monotonicity is deliberately {e not} preserved —
    that is the fault being injected. *)

val flaky : t -> (unit -> 'a) -> unit -> 'a
(** With probability [p_transient] per call, raises {!Injected}
    before running the thunk — an EINTR-style transient. *)

val with_retries : max:int -> (unit -> 'a) -> 'a
(** Run a thunk, retrying up to [max] total attempts while it raises
    {!Injected}; the last attempt's exception propagates. (The serve
    CLI's accept loop retries [EINTR] itself and does not use this.)
    @raise Invalid_argument if [max < 1]. *)

type damage = Untouched | Truncated of int | Bit_flipped of int
(** What a file-damage injector did: nothing (missing/empty file), cut
    the file to the given byte length, or flipped one bit at the given
    offset. *)

val tear_file : t -> string -> damage
(** A seeded coin flip between cutting the file at a seeded offset (a
    torn write, a lost tail) and flipping one seeded bit (media
    corruption the checksum must catch). *)

val count : t -> string -> int
(** Injections of one kind so far (e.g. ["disconnect.send"],
    ["tear.truncate"], ["clock.forward"], ["transient"]). *)

