(** Shared request assembly: names → distributions, cost models,
    strategies, cascade tiers.

    This is the single place where a user-supplied name (from a CLI
    flag {e or} a daemon JSONL request) becomes a live object, so the
    two surfaces cannot drift: [bin/stochastic_cli.ml] maps the [Error]
    branch to its usage exit code (2), the daemon maps it to a
    structured code-2 error response. Everything is [Result]-typed —
    nothing here prints or exits. *)

val dist :
  ?hpc:bool ->
  ?trace:string ->
  ?fit:bool ->
  string ->
  (Distributions.Dist.t, string) result
(** [dist name] resolves a distribution name: the Table 1 registry
    (case-insensitive), the neuroscience traces [vbmqa]/[fmriqa]
    ([hpc], default false, switches them to hours to match the NeuroHPC
    cost model), or the off-registry [frechetheavy]. When [trace] is
    given, the CSV at that path is loaded instead and either
    interpolated directly or, with [fit] (default false), reduced to
    its LogNormal MLE — the paper's Fig. 1 pipeline. A missing or
    malformed CSV is an [Error], not an exception. *)

val model :
  hpc:bool ->
  alpha:float ->
  beta:float ->
  gamma:float ->
  (Stochastic_core.Cost_model.t, string) result
(** [model ~hpc ~alpha ~beta ~gamma] is {!Stochastic_core.Cost_model.neuro_hpc}
    when [hpc], otherwise the affine model with the given coefficients;
    coefficient-domain violations ([alpha <= 0], negatives) come back
    as [Error]. *)

val strategy :
  budget:Robust.Solver.budget ->
  seed:int ->
  string ->
  (Stochastic_core.Strategy.t, string) result
(** [strategy ~budget ~seed name] resolves the seven paper strategy
    names exactly as the CLI always has: [brute-force]/[bruteforce]/[bf]
    (grid [budget.bf_candidates], Monte-Carlo [budget.mc_samples],
    [seed]), [mean-by-mean], [mean-stdev], [mean-doubling],
    [median-by-median], [equal-time] and
    [equal-probability]/[equal-prob] (discretization size
    [budget.dp_points]). *)

val tiers_of_string :
  string -> (Robust.Solver.tier list, string) result
(** [tiers_of_string "bf,dp"] parses the comma-separated cascade
    specification of the CLI's [--tiers] flag: each element is one of
    [brute-force]/[bruteforce]/[bf], [dp]/[equal-probability]/
    [equal-prob], [mean-doubling]/[doubling]. *)

val tiers_of_strategy : string -> Robust.Solver.tier list option
(** How the daemon routes a [strategy] request field through the
    robust cascade: ["cascade"] (the daemon default) is the full
    fallback chain {!Robust.Solver.all_tiers}; a single tier name
    (same spellings as {!tiers_of_string}) restricts the cascade to
    exactly that tier, so the caller gets that solver or a typed
    error. [None] means the name is not cascade-addressable — the
    daemon then falls back to {!strategy} and direct evaluation. *)

