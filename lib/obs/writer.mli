(** Line sinks: where JSONL trace records and log lines go.

    A writer receives one complete line (without the newline) per
    record. Keeping the destination a plain function makes every
    emitter in this library explicit-sink by construction — there is
    no ambient global channel to write to, which is exactly the
    discipline the UNLOGGED_SINK lint rule enforces on the rest of the
    repo. *)

type t = string -> unit

val of_channel : out_channel -> t
(** Appends the line and a ['\n'] to the given channel. The caller
    owns the channel (opening, flushing, closing). *)

val to_buffer : Buffer.t -> t
(** Appends the line and a ['\n'] to a buffer — used by tests for
    golden comparisons and by the bench harness to measure emission
    cost without touching the filesystem. *)
