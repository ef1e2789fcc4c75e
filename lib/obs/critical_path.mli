(** Longest child-chain decomposition of a span tree.

    For each root span, walk downward always into the child with the
    largest duration: the resulting chain is where an optimisation
    would shorten the root's wall time, and each step's {e self} time
    says how much of the chain the step itself burns (as opposed to
    delegating further down). Spans are synchronous and nested, so the
    heaviest child is the dominant contributor at every level. *)

type step = {
  span : Trace_read.span;
  step_self : float;
      (** The step's own time: duration minus all children (not just
          the one the chain descends into), clamped at zero. *)
  fraction : float;
      (** Step duration / root duration; [1.0] at the root, [0.0] on
          a zero-length root. *)
}

val compute : Trace_read.t -> step list list
(** One root-to-leaf chain per root, in root id order, root first; a
    childless root's chain is a singleton. *)

val pp : Format.formatter -> step list list -> unit
