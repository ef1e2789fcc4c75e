(** Synthetic neuroscience application traces (Fig. 1 substitution).

    The paper extracts execution-time distributions from over 5000
    runs of two neuroscience applications (fMRIQA and VBMQA) stored in
    Vanderbilt's medical-imaging database, then fits LogNormal laws to
    them. That database is not public, so this module generates
    synthetic traces from the published fits — the downstream pipeline
    (trace file -> empirical distribution -> LogNormal fit -> strategy
    computation) is exactly the one the paper runs, only the raw bytes
    differ. CSV round-tripping is provided so the pipeline can also
    ingest real traces when available. *)

type application = {
  app_name : string;  (** e.g. ["VBMQA"]. *)
  mu : float;  (** Published LogNormal log-mean (seconds). *)
  sigma : float;  (** Published LogNormal log-std. *)
}

val vbmqa : application
(** Voxel-based morphometry QA [16]: LogNormal(7.1128, 0.2039) — the
    NEUROHPC distribution (mean ~ 1253 s). *)

val fmriqa : application
(** Functional MRI QA [10]: Fig. 1(a)'s application. The paper prints
    the fitted mean and standard deviation only in the figure art,
    so we instantiate a LogNormal with a comparable scale
    (mean ~ 2100 s, cv ~ 0.6) via moment inversion. *)

val distribution : application -> Distributions.Dist.t
(** [distribution app] is the application's LogNormal law (seconds). *)

val distribution_hours : application -> Distributions.Dist.t
(** [distribution_hours app] is the same law rescaled to hours (the
    unit of the NEUROHPC cost model). *)

val generate : ?runs:int -> application -> Randomness.Rng.t -> float array
(** [generate app rng] draws [runs] (default [5000], as in Fig. 1)
    execution times in seconds. *)

val save_csv : string -> float array -> unit
(** [save_csv path trace] writes one execution time per line
    (["runtime_seconds"] header). *)

val load_csv : string -> float array
(** [load_csv path] reads a trace written by {!save_csv} (header
    optional; blank lines ignored).
    @raise Failure on malformed numeric data. *)

