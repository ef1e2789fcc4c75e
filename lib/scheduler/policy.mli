(** Pluggable queueing policies: FCFS and EASY backfilling.

    A policy is a pure dispatch rule: given the instantaneous cluster
    state and the pending queue, it decides which waiting jobs to start
    now. Keeping it pure (no mutation, arrays in, indices out) makes
    the EASY invariant — {e a backfilled job never delays the queue
    head} — directly property-testable.

    Because the simulator kills a job exactly at its reservation end,
    reservation ends are hard release guarantees; EASY's shadow time is
    therefore exact, and the backfill condition is sound rather than
    speculative. *)

type t =
  | Fcfs  (** Strict arrival order; the queue head blocks everyone. *)
  | Easy_backfill
      (** Start in order until blocked, then backfill any later job
          that fits in the free nodes and either terminates by the
          head's shadow time or uses only the head's spare nodes. *)

val name : t -> string
val of_string : string -> t option
val all : t list

val select :
  t ->
  now:float ->
  free:int ->
  running:(float * int) list ->
  (int * float) array ->
  int list
(** [select p ~now ~free ~running queue] returns the indices (into
    [queue], in dispatch order) of the pending jobs to start at [now].
    [queue] lists the pending jobs in FCFS order as
    [(nodes, requested_walltime)]; [running] lists the running
    reservations as [(reservation_end, nodes)]. *)
