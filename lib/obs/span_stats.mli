(** Per-span-name aggregation over a parsed trace.

    One row per distinct span name: how often it ran, where the time
    went (total vs self — self excludes child spans, so the rows sum
    to wall time instead of double-counting nests), the nearest-rank
    latency quantiles the paper's tail-cost arguments care about, and
    how many runs closed on an error. *)

type row = {
  name : string;
  count : int;
  errors : int;  (** Spans that closed with an [error] field. *)
  total : float;  (** Sum of durations, seconds. *)
  self : float;  (** Sum of self times (children excluded), seconds. *)
  p50 : float;  (** Nearest-rank duration quantiles ... *)
  p95 : float;
  p99 : float;
  max : float;  (** ... and the worst single run, seconds. *)
}

val compute : Trace_read.t -> row list
(** Rows sorted by descending [total] (ties by name), so the biggest
    time sink leads. An empty trace yields []. *)

val find : row list -> string -> row option

type change = {
  c_name : string;
  c_old : row option;
  c_new : row option;
  rel : float;
      (** Relative total-time change [(new - old) / old]; [infinity]
          for an appeared name, [-1] for a vanished one. *)
  regression : bool;
      (** [true] when the name exists on both sides and its total grew
          by more than the threshold. Appearances and disappearances
          are changes but not regressions — there is no baseline to
          be relative to. *)
}

val diff : threshold:float -> old_rows:row list -> new_rows:row list ->
  change list
(** Span names whose [count] or [total] differ between the two runs
    (exact comparison — two runs of the same fake-clock workload
    produce bit-identical rows, so their diff is empty), sorted by name
    and scored against a relative regression threshold ([0.25] = flag
    a span name whose total time grew more than 25%).
    @raise Invalid_argument if [threshold] is negative or not finite. *)

val to_json : row list -> Stochobs.Json.t
val pp : Format.formatter -> row list -> unit
val pp_changes : Format.formatter -> change list -> unit
