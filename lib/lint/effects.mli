(** The effect lattice stochdomcheck infers for every top-level
    function, plus builtin effect tables for externals (stdlib, Unix)
    the analysis will never see a [.cmt] for.

    All flags are may-effects: [true] = "the analysis saw a path",
    [false] = "no path seen". [join] is pointwise disjunction, so the
    call-graph fixpoint is monotone. *)

type t = {
  reads_global : bool;  (** reads some top-level mutable value *)
  writes_global : bool;  (** writes some top-level mutable value *)
  reads_param : bool;
      (** reads mutable state handed to it (or allocated locally) *)
  writes_param : bool;
      (** mutates values it did not verifiably allocate itself —
          harmless under [Domain.spawn] iff every domain passes fresh
          arguments *)
  io : bool;  (** ambient IO: channels, Unix, Sys, exit *)
  rng : bool;
      (** draws from RNG state that was not threaded as a parameter *)
}

val pure : t
val join : t -> t -> t
val equal : t -> t -> bool

val to_string : t -> string
(** ["pure"] or a [+]-joined tag list, e.g.
    ["writes-global+reads-global+io"]. *)

(** Behaviour of a call to an external we have no [.cmt] for.
    [Mutator]/[Reader] act on the first positional argument (the
    stdlib container convention); [Io]/[Rng] are ambient; [Opaque] is
    assumed pure. *)
type builtin = Mutator | Reader | Io | Rng | Opaque

val classify : string -> builtin
(** Classify a canonical value path, e.g.
    [classify "Stdlib.Hashtbl.replace" = Mutator]. *)

val mutable_type_heads : string list
(** Builtin type constructors whose values are always mutable
    ([ref], [array], [Hashtbl.t], ...). *)

val rng_type_heads : string list
(** Canonical type paths that are RNG state ([Randomness.Rng.t]). *)
