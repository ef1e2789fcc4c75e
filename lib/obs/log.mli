(** Leveled logging to an explicit {!Writer.t}.

    Library code never writes to stdout/stderr directly (the
    UNLOGGED_SINK lint rule enforces this); instead it takes a [Log.t]
    — defaulting to {!null} — and the binary decides where lines go.
    The [*f] formatters render their arguments before the level check
    ([ksprintf] formats eagerly), so keep their interpolations cheap
    in hot paths. *)

type level = Debug | Info | Warn | Error

type t

val null : t
(** Discards everything at zero cost. *)

val make : ?min_level:level -> Writer.t -> t
(** [min_level] defaults to [Info]. *)

val debugf : t -> ('a, unit, string, unit) format4 -> 'a
val infof : t -> ('a, unit, string, unit) format4 -> 'a
