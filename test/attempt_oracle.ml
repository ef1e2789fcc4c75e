(* Test oracle for Core.Attempt: the attempt geometry Scheduler.Job
   carried before Attempt replaced it, kept verbatim apart from this
   header, the job stub marked below, and the two [progress_after_*]
   functions, which are finish_attempt's and interrupt's progress
   updates without their bookkeeping. Its [1e-12] and [1e-9] fudges
   are part of what it pins: test_attempt holds Attempt.close to these
   functions away from snapshot boundaries, and pins the boundary cases
   where the fudges decided differently. Do not "fix" or speed up this
   file: its value is that it is the old arithmetic. *)

module Checkpoint = Stochastic_core.Checkpoint

type checkpoint = { params : Checkpoint.params; period : float }

(* Stub: the fields of Job.t that the geometry reads. [request] is the
   current attempt's reservation. *)
type t = {
  checkpoint : checkpoint option;
  duration : float;
  progress : float;
  request : float;
}

let request j = j.request

let remaining j = j.duration -. j.progress

(* Time structure of an attempt under the periodic-checkpoint
   discipline: restore the last snapshot (restart_cost, only when there
   is one), then alternate [period] of work and a checkpoint
   (checkpoint_cost); no checkpoint is taken at completion. Durable
   progress advances only at completed checkpoints. *)

let restore_time j =
  match j.checkpoint with
  | Some c when j.progress > 0.0 -> c.params.Checkpoint.restart_cost
  | _ -> 0.0

(* Checkpoints paid on the way to completing [w] more work. *)
let ckpts_to_finish w period =
  max 0 (int_of_float (Float.ceil ((w /. period) -. 1e-12)) - 1)

(* The open-attempt state check is dropped: the stub has no state. *)
let attempt_span j =
  let l = request j in
  let w = remaining j in
  match j.checkpoint with
  | None -> if l >= w then (w, true) else (l, false)
  | Some { params; period } ->
      let need =
        restore_time j +. w
        +. (params.Checkpoint.checkpoint_cost
           *. float_of_int (ckpts_to_finish w period))
      in
      if need <= l +. 1e-9 then (need, true) else (l, false)

(* Durable checkpoints completed [elapsed] into the current attempt. *)
let snapshots_by j ~elapsed =
  match j.checkpoint with
  | None -> 0
  | Some { params; period } ->
      let r = restore_time j in
      let cycle = period +. params.Checkpoint.checkpoint_cost in
      let k =
        if elapsed <= r then 0
        else int_of_float (Float.floor (((elapsed -. r) /. cycle) +. 1e-12))
      in
      min (max 0 k) (ckpts_to_finish (remaining j) period)

(* Progress after the attempt: finish_attempt's update on completion
   or timeout, and interrupt's after a kill [elapsed] hours in. *)
let progress_after_finish j =
  let _, completes = attempt_span j in
  if completes then j.duration
  else
    match j.checkpoint with
    | None -> j.progress
    | Some { period; _ } ->
        let k = snapshots_by j ~elapsed:(request j) in
        j.progress +. (float_of_int k *. period)

let progress_after_interrupt j ~elapsed =
  match j.checkpoint with
  | None -> j.progress
  | Some { period; _ } ->
      let k = snapshots_by j ~elapsed in
      j.progress +. (float_of_int k *. period)
