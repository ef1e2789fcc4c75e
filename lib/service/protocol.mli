(** The daemon's JSONL wire protocol.

    One JSON object per line in, one per line out, in request order.
    Five request kinds:

    {v
    {"kind": "solve", "id": 1, "dist": {"name": "lognormal"},
     "model": {"alpha": 1, "beta": 0, "gamma": 0}, "strategy": "cascade",
     "budget": {"m": 300, "n": 200, "disc_n": 200}, "seed": 42,
     "count": 10, "exact": false}
    {"kind": "fit", "id": 2, "tenant": "u1", "samples": [812.2, ...]}
    {"kind": "stats", "id": 3}
    {"kind": "metrics", "id": 4}
    {"kind": "shutdown", "id": 5}
    v}

    [dist] is one of [{"name": N}] (registry / trace names, as the CLI
    [--dist]), [{"family": "lognormal", "mu": M, "sigma": S}] (explicit
    parameters — the cacheable fast path), or [{"tenant": T}] (the
    LogNormal fit stored by a prior [fit] request). [model] is the
    affine object above or the string ["hpc"]. Responses echo [id]
    and carry [ok]; failures are structured:

    {v
    {"id": 1, "ok": false, "code": 4, "error": "invalid-distribution",
     "detail": "..."}
    v}

    The [code] numbering {e is} the CLI exit-code taxonomy, so scripts
    can treat a daemon error exactly like a CLI failure: 2 usage
    (malformed request, unknown name), 4 invalid distribution, 5
    non-convergent, 6 budget exhausted, 7 invalid parameter. *)

type dist_spec =
  | Named of string
  | Lognormal of { mu : float; sigma : float }
  | Tenant of string

type model_spec =
  | Hpc
  | Affine of { alpha : float; beta : float; gamma : float }

type budget_spec = {
  m : int option;  (** Brute-force grid size. *)
  n : int option;  (** Monte-Carlo samples. *)
  disc_n : int option;  (** DP discretization size. *)
  max_seconds : float option;
  max_evaluations : int option;
}

type solve = {
  dist : dist_spec;
  model : model_spec;
  strategy : string;  (** Default ["cascade"]. *)
  budget : budget_spec;
  seed : int option;
  count : int;  (** Reservations to materialise (default 10). *)
  exact : bool;  (** Rank brute-force candidates by Eq. (4). *)
}

type request =
  | Solve of solve
  | Fit of { tenant : string; samples : float array }
  | Stats
  | Metrics
  | Shutdown

type error = { code : int; label : string; detail : string }

val usage_error : string -> error
(** Code 2 — malformed request, unknown kind/name/field. *)

val invalid_distribution_error : string -> error
(** Code 4 — a distribution that fails to construct or validate. *)

val budget_exhausted_error : string -> error
(** Code 6 — a request that overran the daemon's hard watchdog. *)

val error_of_solver : Robust.Solver.error -> error
(** Map a typed solver error onto the wire: the [code] is exactly
    {!Robust.Solver.exit_code} (4–7), [label] its kebab-case name,
    [detail] {!Robust.Solver.error_to_string}. Pinned by a regression
    test so the two taxonomies cannot drift. *)

val parse_request : string -> (Stochobs.Json.t option * request, Stochobs.Json.t option * error) result
(** Parse one JSONL line. Both branches carry the echoed [id] field
    when one was readable, so even a malformed request is answered
    with its correlation id. *)

(** {1 Responses} *)

type solved = {
  dist_name : string;  (** Display name of the resolved distribution. *)
  tier : string;  (** Producing tier or direct strategy name. *)
  degraded : bool;
  head : float array;
  cost : float;
  normalized : float;
}

val solved_to_json : solved -> Stochobs.Json.t
(** Persistence codec for the cache journal. Finite floats are emitted
    as JSON numbers ([%.17g] round-trips a double exactly, so a
    recovered entry is bit-identical to the one written); NaN and the
    infinities — unspellable in JSON — ride as the string tokens
    ["nan"], ["inf"], ["-inf"]. *)

val solved_of_json : Stochobs.Json.t -> (solved, string) result
(** Inverse of {!solved_to_json}; [Error] names the missing or
    ill-typed field. Never raises. *)

val solved_tail : solved -> string
(** The part of a solve response that depends only on the answer: its
    fields from ["dist"] to ["normalized"], rendered. A cache entry
    renders it once, and each hit reuses it. *)

val solve_response :
  id:Stochobs.Json.t option -> cached:bool -> key:string -> tail:string -> string
(** The solve response: [id], [ok], [kind], [cached] and [key], then
    [tail], the {!solved_tail} of the answer. *)

val fit_response :
  id:Stochobs.Json.t option -> tenant:string ->
  Distributions.Fitting.lognormal_fit -> string
val stats_response : id:Stochobs.Json.t option -> Stochobs.Json.t -> string
(** Wrap a server-assembled stats object. *)

val metrics_response : id:Stochobs.Json.t option -> exposition:string -> string
(** Wrap a Prometheus text exposition (see
    {!Stochobs.Metrics.to_prometheus}) for live scraping through the
    protocol; [content_type] carries the exposition-format version so
    a relay can serve the payload verbatim over HTTP. *)

val shutdown_response : id:Stochobs.Json.t option -> string
val error_response : id:Stochobs.Json.t option -> error -> string
