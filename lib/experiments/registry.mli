(** The one list of the reproduced experiments.

    Every paper artefact and ablation is an entry here. The benchmark
    harness and the CLI both iterate {!all}, so an experiment's
    configuration (paper or quick), its quick-mode overrides, its
    sanity checks and its JSON artefact are written down once. *)

type outcome = {
  text : string;  (** The rendered table or figure. *)
  sanity : (string * bool) list;  (** Labelled qualitative checks. *)
  json : Stochobs.Json.t option;  (** Machine-readable artefact, if any. *)
}

type t = {
  name : string;  (** Bench artefact and CLI command name. *)
  title : string;  (** Section banner. *)
  doc : string;  (** One-line CLI help. *)
  run : quick:bool -> log:Stochobs.Log.t -> outcome;
      (** Runs at {!Config.quick} when [quick], else {!Config.paper};
          [log] receives progress lines from the experiments that emit
          them. *)
}

val config : quick:bool -> Config.t
(** The configuration every entry runs at. *)

val all : t list
(** Every experiment, in the order bench runs them. *)

val render : t -> outcome -> string
(** The entry's section: the underlined title, the text, then one
    [\[sanity\]] line (all checks hold) or one per failed check. *)

val passed : outcome -> bool
(** Every sanity check holds. *)
