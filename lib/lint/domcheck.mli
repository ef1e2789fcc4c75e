(** stochdomcheck: cross-module effect & domain-safety analysis over
    the typedtrees ([.cmt] files) of the whole build.

    Three rule families ride on the stochlint Finding/Suppress/Baseline
    machinery:

    - [GLOBAL_MUT_STATE] — an unannotated top-level mutable value in
      [lib/] (severity Warning);
    - [DOMAIN_UNSAFE_REACH] — a declared parallel-candidate entry
      point transitively writes shared global mutable state (Warning);
    - [RNG_AMBIENT] — RNG state reached ambiently: a global
      [Randomness.Rng.t], or an entry point drawing from stdlib
      [Random] (Error).

    Alongside the findings, [report_json] renders the effect report
    the multicore PR will diff against: every global mutable with its
    writers/readers and which entry points reach it, and the inferred
    effect signature of each entry point. *)

type global = {
  g_key : string;  (** canonical, e.g. ["Stochobs__Metrics.default"] *)
  g_pretty : string;  (** human form, e.g. ["Stochobs.Metrics.default"] *)
  g_file : string;
  g_line : int;
  g_col : int;
  g_kind : string;  (** ["ref"], ["hashtable"], ["mutable record (...)"] ... *)
  g_type : string;  (** printed type *)
  g_rng : bool;  (** is a [Randomness.Rng.t] *)
  g_quiet : bool;
      (** array/bytes with no observed writer — a lookup table; listed
          in the report, not linted *)
  mutable g_suppressed : string option;  (** inline-allow reason *)
  mutable g_writers : string list;
  mutable g_readers : string list;
  mutable g_reached_by : string list;  (** entry points reaching it *)
}

type entry_report = {
  e_key : string;
  e_pretty : string;
  e_file : string;
  e_line : int;
  e_eff : Effects.t;
  e_writes : string list;
  e_reads : string list;
  e_unsafe : string list;  (** unsuppressed globals it writes *)
  e_rng_ambient : bool;
}

type outcome = {
  findings : Finding.t list;
  suppressed : int;
  globals : global list;
  entries : entry_report list;
  functions : int;
  units : int;
  load_errors : Finding.input_error list;
  unresolved_entries : string list;
      (** entry names that matched no analysed function *)
}

val default_entries : string list
(** The repo's declared parallel-candidate entry points. *)

val analyze :
  ?context:Rules.context ->
  source_root:string ->
  entries:string list ->
  string list ->
  outcome
(** [analyze ~source_root ~entries roots] loads every [.cmt] under
    [roots], runs the inventory + effect fixpoint, and evaluates the
    rules for [entries]. Source files are read relative to
    [source_root] for inline suppressions. [?context] forces every
    file into one lint context (fixtures in tests); the default maps
    paths with [Rules.context_of_path]. *)

val report_json : outcome -> Stochobs.Json.t
