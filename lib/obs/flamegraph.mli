(** Folded-stack flamegraph output.

    The classic [flamegraph.pl] input format: one line per distinct
    stack, frames joined by [';'] root-first, followed by a value.
    Values are {e self} times, so a stack's width in the rendered
    graph is time spent in that frame itself — children get their own
    stacks — and the whole graph sums to the trace's wall time. *)

(* stochlint: allow UNUSED_EXPORT — test_trace_read checks the self times sum to the trace's wall time *)
val folded : Trace_read.t -> (string * float) list
(** [(stack, self_seconds)] pairs, identical stacks aggregated,
    zero-self stacks dropped, sorted by stack string for deterministic
    output. Frame names have embedded [';'], space and newline
    characters replaced by ['_'] so the folded format stays
    unambiguous. *)

val to_lines : Trace_read.t -> string list
(** {!folded} rendered as ["stack value"] lines with the value in
    integer microseconds (rounded), the unit flamegraph toolchains
    expect. Stacks rounding to zero microseconds are kept at [1] so no
    observed frame vanishes from the graph. *)

