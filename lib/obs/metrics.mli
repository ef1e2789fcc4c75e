(** Metrics registry: named counters, gauges, and fixed-bucket
    histograms with snapshot/diff algebra.

    Instruments are registered once (registration is idempotent and
    keyed by name) and updated from hot paths. A registry starts
    {e disabled}: every update on a disabled registry is one load and
    one branch, so probes can live permanently in solver and service
    inner loops. Enabling is a runtime switch
    ({!set_enabled}), which lets the CLI flip {!default} on after all
    modules have registered their instruments.

    Names follow the repo-wide [layer.component.metric] scheme, e.g.
    ["robust.solver.evaluations"] or ["service.cache.evictions"]. *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry; [enabled] defaults to [false]. *)

val default : t
(** The process-global registry used by built-in instrumentation.
    Disabled until something (the CLI's [--profile], a test) calls
    [set_enabled default true]. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** {1 Instruments}

    Each constructor returns the existing instrument when the name is
    already registered with the same kind, and raises
    [Invalid_argument] when the name is bound to a different kind or
    empty. Updates on a disabled registry are no-ops; reads work
    regardless. *)

type counter

val counter : t -> string -> counter

val add : counter -> int -> unit
(** Saturates at [max_int] instead of wrapping; negative increments
    are ignored. *)

val incr : counter -> unit
val count : counter -> int

type gauge

val gauge : t -> string -> gauge

val set : gauge -> float -> unit
(** Records the instantaneous value; also tracks the maximum seen. *)

val last : gauge -> float
val max_seen : gauge -> float

type histogram

val histogram : t -> string -> buckets:float array -> histogram
(** [buckets] are strictly increasing finite upper bounds; an implicit
    overflow bucket catches everything above the last bound. Raises
    [Invalid_argument] on empty, non-finite, or non-increasing bounds,
    and on re-registration with different bounds the original bounds
    win (the name keys the instrument). *)

val observe : histogram -> float -> unit
(** A value [v] lands in the first bucket with [v <= upper.(i)], else
    the overflow bucket. The running sum is Kahan-compensated. *)

val observe_int : histogram -> int -> unit

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of { last : float; max : float }
  | Histogram_v of {
      upper : float array;
      counts : int array;  (** length [Array.length upper + 1] *)
      total : int;
      sum : float;
    }

type snapshot = (string * value) list
(** Sorted by instrument name. *)

val snapshot : t -> snapshot
(** Immutable copy of the registry's current readings. Gauges that
    were never {!set} are omitted — they have no reading to report. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-instrument delta over [after]'s names: counters and histogram
    counts/totals subtract (clamped at zero), histogram sums subtract
    exactly, gauges keep the [after] reading (they are instantaneous,
    not cumulative). Instruments absent from [before] pass through. *)

val zero : value -> bool
(** [true] when the value records no activity — handy for filtering a
    {!diff} down to what actually moved. *)

val merge : snapshot -> snapshot -> snapshot
(** [merge a b] is the union of two snapshots: counters and histogram
    counts/totals add (saturating at [max_int]), histogram sums add
    exactly, gauges keep [b]'s [last] (the right operand is "later",
    as in {!diff}) and the larger of the two maxima. Instruments
    present on one side pass through. Over well-kinded snapshots —
    same name always the same kind and bucket bounds, which is all a
    registry can produce — [merge] is associative with the empty
    snapshot as identity, so per-domain registries fold cleanly at
    join; on a kind or bucket mismatch the right operand wins. *)

val to_json : snapshot -> Json.t
val pp : Format.formatter -> snapshot -> unit

val to_prometheus : snapshot -> string
(** Prometheus text exposition (format 0.0.4) of a snapshot: dots in
    instrument names become underscores, counters gain the
    conventional [_total] suffix, gauges emit their last reading plus
    a [<name>_max] companion, histograms emit cumulative
    [<name>_bucket{le="..."}] series ending at [le="+Inf"] with
    [_sum] and [_count]. Every series is preceded by its [# TYPE]
    line. *)
