(** Benchmark artefact for the robust solver cascade.

    Runs {!Robust.Solver.solve} over every Table 1 distribution and
    records, per row: which cascade tier answered, how many tiers were
    rejected first, the normalized cost, and the wall-clock split
    between input validation ({!Robust.Dist_check.run}) and the solve
    itself. Each time is the best of three CPU-time runs after one
    untimed run. The paper's distributions are all well-behaved, so the
    cascade must answer every row from the primary brute-force tier —
    any degradation here is a regression — and the validation pass is
    budgeted at under 5% of the solve time. *)

type row = {
  dist_name : string;
  tier : string;  (** {!Robust.Solver.tier_name} of the chosen tier. *)
  rejections : int;  (** Tiers rejected before the answer. *)
  normalized : float;  (** Normalized expected cost of the answer. *)
  check_seconds : float;  (** {!Robust.Dist_check.run} alone. *)
  solve_seconds : float;  (** Full validated solve. *)
  baseline_seconds : float;  (** Same solve with [~validate:false]. *)
}

type t = {
  rows : row list;
  tier_counts : (string * int) list;
      (** Chosen-tier histogram over all rows. *)
  overhead : float;
      (** [sum check_seconds / sum baseline_seconds] — the relative
          cost of validating every input before solving. *)
}

val run : ?cfg:Config.t -> ?log:Stochobs.Log.t -> unit -> t
(** [run ()] solves all nine Table 1 rows under RESERVATIONONLY with
    the configured grids (paper parameters by default). [log] (default
    {!Stochobs.Log.null}) receives one progress line per distribution
    as it completes — the CLI's [--verbose] wires it to stderr. *)

val to_string : t -> string

val sanity : t -> (string * bool) list
(** Labelled checks: every row solved, every row answered by the
    primary tier, validation overhead within bound. (The bound is
    lenient in CI — 50% — because quick-config solves are so fast that
    the fixed validation cost dominates; the <5% target applies at
    paper-scale grids, which the bench harness measures.) *)
