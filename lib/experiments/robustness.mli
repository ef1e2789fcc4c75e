(** Ablation: robustness to model misspecification.

    The paper assumes the execution-time distribution is {e known};
    in practice it is fitted from a finite trace (Fig. 1 uses 5000
    runs). This experiment quantifies the cost of estimation error:
    fit a LogNormal to [k] samples of the true law, compute the
    BRUTE-FORCE sequence against the {e fitted} law, and evaluate it
    exactly against the {e true} law. The regret relative to the
    sequence computed with the true law measures how many trace
    samples are enough — the practical question for anyone deploying
    these strategies. *)

type point = {
  samples : int;  (** Trace size the model was fitted from. *)
  mean_normalized : float;
      (** Mean (over kept replicas) true normalized cost of the
          fitted-model sequence. *)
  worst_normalized : float;  (** Worst kept replica. *)
  regret : float;
      (** [mean_normalized - oracle_normalized], where the oracle
          knows the true distribution. *)
  skipped : int;
      (** Replicas whose fitted law the robust solver rejected with a
          typed error (skip-and-report, never a crash). *)
}

type t = {
  dist_name : string;
  oracle_normalized : float;  (** BRUTE-FORCE with the true law. *)
  points : point list;
  skip_reasons : string list;
      (** One line per skipped replica: which fit failed and the typed
          {!Robust.Solver.error} it produced. *)
}

val run :
  ?cfg:Config.t ->
  ?sample_sizes:int array ->
  ?replicas:int ->
  unit ->
  t
(** [run ()] uses the NEUROHPC LogNormal as the true law with
    [replicas] (default [20]) independent fits per sample size. Each
    fitted law is solved through {!Robust.Solver.solve} with
    [~exact:true]: replicas whose fit the solver rejects are skipped
    and reported in {!t.skip_reasons} instead of crashing the sweep. *)

val to_string : t -> string

val sanity : t -> (string * bool) list
(** Checks that regret decreases with trace size and is negligible at
    the paper's 5000 runs. *)
