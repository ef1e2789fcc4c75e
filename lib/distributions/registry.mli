(** Name-indexed registry of every distribution this library ships:
    the paper's Table 1 evaluation set plus the extended set (mixture,
    log-logistic, Frechet, triangular, shifted exponential,
    Rayleigh). *)

val extras : (string * Dist.t) list
(** The beyond-the-paper distributions with their default
    instantiations. *)

val find : string -> Dist.t option
(** Case-insensitive lookup over {!Table1.all} and {!extras}. *)

val names : unit -> string list
(** Registered names: {!Table1.all}, then {!extras}. *)
