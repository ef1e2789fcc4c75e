(** Node-constrained cluster state with per-node identity.

    Each node is up or down (fault injection) and free or allocated
    (dispatch). Allocation returns concrete node ids — lowest-numbered
    free nodes first, so placement is deterministic and the engine
    knows exactly which job a node failure kills. Busy node-time is
    integrated over simulated time with compensated summation, so
    utilization is exact up to floating-point rounding even over
    millions of events. The engine calls {!advance} before every state
    change so the busy integral is piecewise-constant between events. *)

type t

val create : nodes:int -> t
(** All nodes start up and free. @raise Invalid_argument if
    [nodes <= 0]. *)

val free : t -> int
(** Nodes currently up {e and} unallocated — the dispatchable pool. *)

val advance : t -> float -> unit
(** [advance t now] accumulates busy node-time up to [now] and moves
    the internal clock forward. Idempotent at the same instant.
    @raise Invalid_argument if [now] precedes the clock.
    @raise Failure if the busy-node count has been corrupted outside
    [[0, nodes]] (engine invariant check). *)

val allocate : t -> int -> int list
(** [allocate t n] marks the [n] lowest-numbered free nodes allocated
    and returns their ids.
    @raise Invalid_argument if [n <= 0] or [n > free t]. *)

val release : t -> int list -> unit
(** [release t ids] returns [ids] to the free pool (down nodes stay
    out of it until {!mark_up}).
    @raise Invalid_argument on an empty list or an unallocated id. *)

val mark_down : t -> int -> unit
(** Take a node out of service. The engine must kill and release the
    occupying job first.
    @raise Invalid_argument if the node is already down or still
    allocated. *)

val mark_up : t -> int -> unit
(** Return a repaired node to the free pool.
    @raise Invalid_argument if the node is already up. *)

val clock : t -> float
(** Simulated time the busy integral has been advanced to. *)

val busy_node_time : t -> float
(** Integrated busy node-time up to the current clock. *)

