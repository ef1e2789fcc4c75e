(** Strategy-as-a-service: the daemon's request loop.

    A server holds the solved-strategy {!Cache} (keyed by
    {!Quantize.key}), the {!Tenants} fit table, and per-kind request
    counters. It knows no transport: {!Transport} is the daemon's one
    loop, feeding it request lines from stdin or a Unix-domain socket,
    with the stop check and the deadline the CLI passes in. One request
    line always produces exactly one response line; blank lines are
    ignored.

    Solves go through {!Robust.Solver.solve} (strategy ["cascade"] or
    a single tier name) so the daemon degrades instead of dying, or —
    for the heuristic strategies outside the cascade — through a
    guarded direct evaluation that converts any escape into a typed
    code-5 response. Only successful solves are cached.

    Robustness: an optional {!Journal} persists successful solves and
    warms the cache on restart; a per-request deadline clamps every
    solve's time budget; oversized request lines are refused with a
    typed code-2 error before parsing; and a pressure state machine
    sheds load when consecutive requests run near the deadline,
    answering cache misses with the mean-doubling tier alone and
    [degraded: true] on the wire until pressure drains. Shed answers
    are never cached or journalled.

    Observability: every request runs inside a ["service.request"]
    span carrying the client's echoed [id] as a typed [request_id]
    attribute (the solver's tier spans nest under it), cache traffic
    and request latencies feed the metrics registry
    ([service.cache.hits/misses/evictions], [service.cache.size],
    [service.request.seconds], [service.requests.*],
    [service.journal.*], [service.deadline.exceeded],
    [service.shed.responses], and the rolling
    [service.request.p99_window] gauge over the last 128 requests —
    shed decisions are annotated with its live value), a [metrics]
    request returns the whole registry as a Prometheus text
    exposition, and the clock is injectable — threaded through to the
    solver's budget guard — so a [--fake-clock] run produces
    bit-for-bit reproducible traces. *)

type config = {
  cache_capacity : int;  (** LRU entries (default 1024). *)
  grid : float;  (** Relative key-quantization grid (default 0.05). *)
  budget : Robust.Solver.budget;
      (** Per-solve base budget; requests override fields. *)
  seed : int;  (** Default Monte-Carlo seed (default 42). *)
  deadline : float option;
      (** Per-request deadline in seconds (default [None]). Clamps
          each solve's [max_seconds] and drives overload shedding. *)
  max_line_bytes : int;
      (** Request lines longer than this are refused with a code-2
          error before parsing (default 1 MiB, minimum 64). *)
  shed_threshold : int;
      (** Consecutive near-deadline requests before the server enters
          shedding mode (default 3, minimum 1). *)
}

val default_config : config
(** 1024 entries, grid {!Quantize.default_grid},
    {!Robust.Solver.quick_budget} (a daemon answers interactively;
    callers wanting paper-scale grids say so per request), seed 42,
    no deadline, 1 MiB line cap, shed threshold 3. *)

val check_config : config -> (config, string) result
(** Validate capacity/grid/deadline/line-cap/threshold before
    building a server. *)

type t

val create :
  ?obs:Stochobs.Trace.sink ->
  ?clock:Stochobs.Clock.t ->
  ?metrics:Stochobs.Metrics.t ->
  ?journal:Journal.t ->
  config -> t
(** [create config] builds a server. [obs] (default
    {!Stochobs.Trace.null}) receives the request spans; [clock]
    (default {!Stochobs.Clock.wall}) times requests, deadlines and the
    uptime reported by [stats]; [metrics] (default
    {!Stochobs.Metrics.default}) hosts the instruments. When [journal]
    is given, its recovered entries are replayed into the cache before
    the first request (append order, so recency survives the restart)
    and every successful cold solve is appended to it; journal I/O
    failures degrade the server to serving without persistence, they
    never kill it.
    @raise Invalid_argument on an invalid config (validate with
    {!check_config} for a typed error). *)

val close : t -> unit
(** Flush and close the journal, if any. Call on graceful shutdown;
    safe when no journal is attached. Never raises. *)

val handle_line : t -> string -> string option * bool
(** [handle_line t line] processes one request line and returns the
    response line (or [None] for blank input) and whether the server
    should stop ([true] exactly after a well-formed [shutdown]
    request). Never raises. *)

val stats_json : t -> Stochobs.Json.t
(** The [stats] response payload: uptime, per-kind request counts,
    cache size/capacity/hits/misses/evictions/hit-rate, tenant count,
    a [journal] object (enabled/appended/recovered/skipped_corrupt/
    compactions/errors), an [overload] object (a summary [state] of
    ["ok"], ["pressure"] or ["shedding"], plus shedding/pressure/
    shed_responses/deadline_exceeded/p99_window_seconds), and a
    snapshot of the metrics registry. *)
