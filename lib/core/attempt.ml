type recovery =
  | Restart
  | Snapshot of { period : float; snapshot_cost : float; restore_cost : float }

let validate r =
  let fail field bound v =
    Error (field, Printf.sprintf "must be finite and %s, got %g" bound v)
  in
  match r with
  | Snapshot { period; _ } when not (Float.is_finite period && period > 0.0) ->
      fail "checkpoint_period" "> 0" period
  | Snapshot { snapshot_cost; _ }
    when not (Float.is_finite snapshot_cost && snapshot_cost >= 0.0) ->
      fail "checkpoint_cost" ">= 0" snapshot_cost
  | Snapshot { restore_cost; _ }
    when not (Float.is_finite restore_cost && restore_cost >= 0.0) ->
      fail "restore_cost" ">= 0" restore_cost
  | Restart | Snapshot _ -> Ok r

(* [@inline] keeps the spot evaluator's floats unboxed across the
   module boundary; clamps avoid the polymorphic [min]/[max]. *)

let[@inline] restore_overhead ~restore_cost ~progress =
  if progress > 0.0 then restore_cost else 0.0

let[@inline] snapshots_to_finish ~period ~remaining =
  let s = int_of_float (ceil (remaining /. period)) - 1 in
  if s > 0 then s else 0

let[@inline] finish_elapsed ~snapshot_cost ~restore ~remaining snaps =
  restore +. remaining +. (snapshot_cost *. float_of_int snaps)

let[@inline] snapshots_by ~stride ~restore ~cap elapsed =
  let c = int_of_float (floor ((elapsed -. restore) /. stride)) in
  let c = if c <= cap then c else cap in
  if c <= 0 then 0 else c

type closed = { elapsed : float; progress : float; finished : bool; interrupted : bool }

let durable_by r ~progress ~total elapsed =
  match r with
  | Restart -> progress
  | Snapshot { period; snapshot_cost; restore_cost } ->
      let restore = restore_overhead ~restore_cost ~progress in
      let cap = snapshots_to_finish ~period ~remaining:(total -. progress) in
      let c = snapshots_by ~stride:(period +. snapshot_cost) ~restore ~cap elapsed in
      progress +. (period *. float_of_int c)

let close r ~length ~progress ~total ~interrupt =
  let remaining = total -. progress in
  let fin =
    match r with
    | Restart -> remaining
    | Snapshot { period; snapshot_cost; restore_cost } ->
        finish_elapsed ~snapshot_cost
          ~restore:(restore_overhead ~restore_cost ~progress)
          ~remaining
          (snapshots_to_finish ~period ~remaining)
  in
  if fin <= length && fin <= interrupt then
    { elapsed = fin; progress = total; finished = true; interrupted = false }
  else
    let interrupted = interrupt < length in
    let elapsed = if interrupted then interrupt else length in
    { elapsed; progress = durable_by r ~progress ~total elapsed; finished = false; interrupted }
