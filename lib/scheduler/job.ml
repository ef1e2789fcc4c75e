module Sequence = Stochastic_core.Sequence
module Attempt = Stochastic_core.Attempt

type outcome = Success | Timeout | Node_failure

type attempt = {
  requested : float;
  submitted : float;
  started : float;
  wait : float;
  elapsed : float;
  outcome : outcome;
  progress_after : float;
}

type state = Waiting | Running | Done | Abandoned

type t = {
  id : int;
  nodes : int;
  duration : float;
  arrival : float;
  reservations : float array;
  recovery : Attempt.recovery;
  mutable attempt : int;
  mutable progress : float; (* durably checkpointed work *)
  mutable failures : int; (* node-failure kills suffered *)
  mutable epoch : int; (* dispatch counter, invalidates stale events *)
  mutable submitted : float;
  mutable started : float;
  mutable state : state;
  mutable history : attempt list; (* newest first *)
  mutable finish : float;
}

let make ?(recovery = Attempt.Restart) ~id ~nodes ~arrival ~duration sequence =
  (match Attempt.validate recovery with
  | Error (field, detail) -> invalid_arg ("Job.make: " ^ field ^ " " ^ detail)
  | Ok _ -> ());
  if nodes <= 0 then invalid_arg "Job.make: nodes must be positive";
  if not (Float.is_finite duration) || duration <= 0.0 then
    invalid_arg "Job.make: duration must be positive and finite";
  if not (Float.is_finite arrival) || arrival < 0.0 then
    invalid_arg "Job.make: arrival must be nonnegative and finite";
  (* Materialise the prefix of the (lazy, possibly infinite) sequence
     up to the first reservation covering the true duration: those are
     the only requests this job can ever submit. With checkpointing the
     job may need extra attempts (overheads) — it then re-requests the
     last, covering reservation. *)
  let reservations =
    Sequence.prefix_until (fun r -> r >= duration) sequence
  in
  let k = Array.length reservations in
  if k = 0 || reservations.(k - 1) < duration then
    raise (Sequence.Not_covered duration);
  {
    id;
    nodes;
    duration;
    arrival;
    reservations;
    recovery;
    attempt = 0;
    progress = 0.0;
    failures = 0;
    epoch = 0;
    submitted = arrival;
    started = nan;
    state = Waiting;
    history = [];
    finish = nan;
  }

let id j = j.id
let nodes j = j.nodes
let duration j = j.duration
let arrival j = j.arrival
let state j = j.state
let submitted j = j.submitted
let failures j = j.failures
let epoch j = j.epoch

let request j =
  (* Past the materialised prefix (possible only with checkpointing),
     keep re-requesting the last reservation: it covers the full
     duration, so a fortiori the remaining work. *)
  j.reservations.(min j.attempt (Array.length j.reservations - 1))

(* The current attempt run to its natural end: completion or expiry. *)
let close j =
  Attempt.close j.recovery ~length:(request j) ~progress:j.progress ~total:j.duration
    ~interrupt:infinity

let attempt_span j =
  if j.state <> Waiting && j.state <> Running then
    invalid_arg "Job.attempt_span: job has no open attempt";
  let a = close j in
  (a.Attempt.elapsed, a.Attempt.finished)

let start j ~now =
  if j.state <> Waiting then invalid_arg "Job.start: job is not waiting";
  if now < j.submitted then
    invalid_arg "Job.start: cannot start before submission";
  j.started <- now;
  j.epoch <- j.epoch + 1;
  j.state <- Running

let record j ~elapsed ~outcome =
  j.history <-
    {
      requested = request j;
      submitted = j.submitted;
      started = j.started;
      wait = j.started -. j.submitted;
      elapsed;
      outcome;
      progress_after = j.progress;
    }
    :: j.history

let finish_attempt j ~now =
  if j.state <> Running then
    invalid_arg "Job.finish_attempt: job is not running";
  let a = close j in
  if a.Attempt.finished then begin
    j.progress <- j.duration;
    record j ~elapsed:a.Attempt.elapsed ~outcome:Success;
    j.state <- Done;
    j.finish <- now;
    true
  end
  else begin
    (* Timed out: the reservation was consumed in full. Snapshotting
       jobs keep the work covered by completed snapshots; plain jobs
       restart from scratch (the paper's execution model). *)
    if a.Attempt.progress <= j.progress && j.attempt >= Array.length j.reservations - 1
    then
      (* Every future attempt re-requests the same last reservation
         and would gain nothing: the overheads have made the job
         impossible to finish. *)
      raise (Sequence.Not_covered j.duration);
    j.progress <- a.Attempt.progress;
    record j ~elapsed:a.Attempt.elapsed ~outcome:Timeout;
    j.attempt <- j.attempt + 1;
    j.submitted <- now;
    j.state <- Waiting;
    false
  end

let interrupt j ~now =
  if j.state <> Running then invalid_arg "Job.interrupt: job is not running";
  let elapsed = Float.max 0.0 (now -. j.started) in
  (* Resume from the last completed snapshot; without snapshots the
     attempt is lost entirely. The reservation index does not advance:
     the request was not too short, the node died under it. *)
  j.progress <- Attempt.durable_by j.recovery ~progress:j.progress ~total:j.duration elapsed;
  record j ~elapsed ~outcome:Node_failure;
  j.failures <- j.failures + 1;
  j.state <- Waiting

let resubmit j ~at =
  if j.state <> Waiting then invalid_arg "Job.resubmit: job is not waiting";
  j.submitted <- at

let abandon j =
  if j.state <> Waiting then invalid_arg "Job.abandon: job is not waiting";
  j.state <- Abandoned

let attempts j = Array.of_list (List.rev j.history)

let finish_time j =
  if j.state <> Done then invalid_arg "Job.finish_time: job is not done";
  j.finish

let total_wait j =
  List.fold_left (fun acc a -> acc +. a.wait) 0.0 j.history

let response j = finish_time j -. j.arrival
let stretch j = response j /. j.duration
