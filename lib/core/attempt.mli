(** One reservation attempt under a recovery discipline: the paper's
    execution model (an attempt runs until the job finishes or its
    reservation ends) plus the work snapshots make durable when an
    attempt is cut short, by a spot revocation ({!Spot_cost},
    [Scheduler.Spot_sim]) or a node failure ([Scheduler.Job]). All
    three account attempts here.

    Under [Snapshot] an attempt restores the last snapshot
    ([restore_cost], only when there is durable progress), then
    alternates [period] hours of work with a [snapshot_cost]-hour
    write; no snapshot is written at completion. Progress becomes
    durable only at completed snapshots. Under [Restart] nothing
    survives an unfinished attempt. ({!Checkpoint}, which snapshots at
    the end of every unfinished reservation, is a different model.) *)

type recovery =
  | Restart  (** Unfinished attempts restart from scratch (base model). *)
  | Snapshot of {
      period : float;  (** Useful-work hours between snapshots. *)
      snapshot_cost : float;  (** Hours to write one snapshot. *)
      restore_cost : float;  (** Hours to resume from a snapshot. *)
    }

val validate : recovery -> (recovery, string * string) result
(** [Ok r], or [Error (field, detail)] for the first bad [Snapshot]
    field: ["checkpoint_period"] unless finite and [> 0],
    ["checkpoint_cost"] / ["restore_cost"] unless finite and [>= 0]. *)

(** {2 Geometry}

    Scalar kernels over unpacked [Snapshot] fields, for hot loops.
    [Restart] is the limit [period = infinity], zero costs. *)

(* stochlint: allow UNUSED_EXPORT — test_spot's flat evaluator oracle (spot_flat_oracle) is built from it *)
val restore_overhead : restore_cost:float -> progress:float -> float
(** [restore_cost] when [progress > 0], else [0]. *)

(* stochlint: allow UNUSED_EXPORT — test_attempt and test_spot's flat oracle (spot_flat_oracle) rebuild finish times from it *)
val snapshots_to_finish : period:float -> remaining:float -> int
(** Snapshots written on the way to finishing [remaining] hours of
    work: [ceil (remaining / period) - 1], at least [0]. *)

(* stochlint: allow UNUSED_EXPORT — test_attempt and test_spot's flat oracle (spot_flat_oracle) rebuild finish times from it *)
val finish_elapsed : snapshot_cost:float -> restore:float -> remaining:float -> int -> float
(** [finish_elapsed ~snapshot_cost ~restore ~remaining snaps] is
    [restore + remaining + snapshot_cost * snaps]: the time to finish. *)

val snapshots_by : stride:float -> restore:float -> cap:int -> float -> int
(** [snapshots_by ~stride ~restore ~cap elapsed] is the number of
    snapshots completed [elapsed] hours in, one per [stride = period +
    snapshot_cost] after the restore: [floor ((elapsed - restore) /
    stride)] clamped to [[0, cap]]. *)

(** {2 Closing an attempt} *)

type closed = {
  elapsed : float;  (** Attempt time used. *)
  progress : float;  (** Durable progress afterwards. *)
  finished : bool;
  interrupted : bool;  (** Killed before the reservation ended. *)
}

val durable_by : recovery -> progress:float -> total:float -> float -> float
(** [durable_by r ~progress ~total elapsed]: durable progress [elapsed]
    hours into an unfinished attempt of a [total]-hour job begun from
    [progress]. *)

val close :
  recovery -> length:float -> progress:float -> total:float -> interrupt:float -> closed
(** One attempt of a [total]-hour job with [progress] hours durable, in
    a [length]-hour reservation, killed [interrupt] hours in
    ([infinity]: never). It finishes when its finish time is within
    both; otherwise it ends at the earlier of the two and keeps
    {!durable_by} that time. *)
