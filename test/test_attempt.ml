(* Core.Attempt: the one attempt-accounting kernel. Its validator names
   the bad field; Attempt.close agrees bit for bit with the geometry
   Scheduler.Job carried before it (Attempt_oracle) away from snapshot
   boundaries; and at the boundaries where the old fudges decided
   differently, the new answers are pinned. *)

module Attempt = Stochastic_core.Attempt
module Checkpoint = Stochastic_core.Checkpoint

let snapshot period snapshot_cost restore_cost =
  Attempt.Snapshot { period; snapshot_cost; restore_cost }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  let field r =
    match Attempt.validate r with Ok _ -> "ok" | Error (field, _) -> field
  in
  let check name expected r = Alcotest.(check string) name expected (field r) in
  check "restart" "ok" Attempt.Restart;
  check "valid snapshot" "ok" (snapshot 1.0 0.0 0.0);
  List.iter
    (fun v ->
      let s = Printf.sprintf "%g" v in
      check ("period " ^ s) "checkpoint_period" (snapshot v 0.05 0.05);
      check ("snapshot cost " ^ s) "checkpoint_cost" (snapshot 1.0 v 0.05);
      check ("restore cost " ^ s) "restore_cost" (snapshot 1.0 0.05 v))
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0 ];
  check "zero period" "checkpoint_period" (snapshot 0.0 0.05 0.05)

(* ------------------------------------------------------------------ *)
(* Attempt.close = the old Job geometry away from boundaries           *)
(* ------------------------------------------------------------------ *)

type case = {
  recovery : Attempt.recovery;
  duration : float;
  progress : float;
  length : float;
  kill : float;  (** Fraction of [length] at which a node failure hits. *)
}

let oracle_job c =
  let checkpoint =
    match c.recovery with
    | Attempt.Restart -> None
    | Snapshot { period; snapshot_cost; restore_cost } ->
        Some
          {
            Attempt_oracle.params =
              { Checkpoint.checkpoint_cost = snapshot_cost; restart_cost = restore_cost };
            period;
          }
  in
  { Attempt_oracle.checkpoint; duration = c.duration; progress = c.progress; request = c.length }

let gen_case =
  let open QCheck.Gen in
  let cost = frequency [ (1, return 0.0); (3, float_range 0.0 0.5) ] in
  let* recovery =
    frequency
      [
        (1, return Attempt.Restart);
        ( 3,
          let* period = float_range 0.05 3.0 in
          let* snapshot_cost = cost in
          let+ restore_cost = cost in
          snapshot period snapshot_cost restore_cost );
      ]
  in
  let* duration = float_range 0.1 40.0 in
  let* done_ = frequency [ (1, return 0.0); (2, float_range 0.0 0.95) ] in
  let* length = float_range 0.05 60.0 in
  let+ kill = float_range 0.0 1.0 in
  let progress =
    match recovery with Attempt.Restart -> 0.0 | Snapshot _ -> done_ *. duration
  in
  { recovery; duration; progress; length; kill }

let print_case c =
  Printf.sprintf "recovery=%s duration=%.17g progress=%.17g length=%.17g kill=%.17g"
    (match c.recovery with
    | Attempt.Restart -> "restart"
    | Snapshot { period; snapshot_cost; restore_cost } ->
        Printf.sprintf "snapshot(%.17g, %.17g, %.17g)" period snapshot_cost restore_cost)
    c.duration c.progress c.length c.kill

(* Within [tol] of an integer: where the old [1e-12] fudges move a
   ceil or floor. *)
let near_integer ?(tol = 1e-6) x = Float.abs (x -. Float.round x) < tol

(* No count or comparison in [c] sits on a snapshot boundary. *)
let away_from_boundaries c =
  match c.recovery with
  | Attempt.Restart -> true
  | Snapshot { period; snapshot_cost; restore_cost } ->
      let restore = if c.progress > 0.0 then restore_cost else 0.0 in
      let stride = period +. snapshot_cost in
      let remaining = c.duration -. c.progress in
      let fin =
        Attempt.finish_elapsed ~snapshot_cost ~restore ~remaining
          (Attempt.snapshots_to_finish ~period ~remaining)
      in
      let span = if fin <= c.length then fin else c.length in
      let windows e = (e -. restore) /. stride in
      (not (near_integer (remaining /. period)))
      && Float.abs (fin -. c.length) > 1e-6
      && (not (near_integer (windows c.length)))
      && not (near_integer (windows (c.kill *. span)))

let same name a b =
  if not (Float.equal a b) then QCheck.Test.fail_reportf "%s: %.17g <> %.17g" name a b

let prop_close_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"close = old Job geometry away from boundaries"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      QCheck.assume (away_from_boundaries c);
      let j = oracle_job c in
      let a =
        Attempt.close c.recovery ~length:c.length ~progress:c.progress ~total:c.duration
          ~interrupt:infinity
      in
      let span, completes = Attempt_oracle.attempt_span j in
      if a.Attempt.finished <> completes then QCheck.Test.fail_report "finished";
      if a.Attempt.interrupted then QCheck.Test.fail_report "interrupted";
      same "elapsed" span a.Attempt.elapsed;
      same "progress" (Attempt_oracle.progress_after_finish j) a.Attempt.progress;
      (* A node failure [kill * length] hours in, before the attempt's
         natural end. *)
      let elapsed = c.kill *. span in
      same "durable at the kill"
        (Attempt_oracle.progress_after_interrupt j ~elapsed)
        (Attempt.durable_by c.recovery ~progress:c.progress ~total:c.duration elapsed);
      true)

(* ------------------------------------------------------------------ *)
(* Boundaries where the old fudges decided differently                 *)
(* ------------------------------------------------------------------ *)

(* 2.1 h of work left at a 0.3 h period: 2.1 /. 0.3 = 7.000000000000001,
   and the stored doubles' exact ratio is also above 7 (by 5.6e-16), so
   finishing writes 7 snapshots. The old [ceil (w / period - 1e-12)]
   read the ratio as exactly 7 and charged 6. *)
let test_snapshots_to_finish_boundary () =
  let r = snapshot 0.3 0.05 0.0 in
  Alcotest.(check int) "snapshots" 7 (Attempt.snapshots_to_finish ~period:0.3 ~remaining:2.1);
  let a = Attempt.close r ~length:10.0 ~progress:0.0 ~total:2.1 ~interrupt:infinity in
  Alcotest.(check bool) "finished" true a.Attempt.finished;
  Alcotest.(check (float 0.0)) "elapsed" (2.1 +. (0.05 *. 7.0)) a.Attempt.elapsed;
  let old =
    oracle_job { recovery = r; duration = 2.1; progress = 0.0; length = 10.0; kill = 0.0 }
  in
  Alcotest.(check (float 0.0)) "old elapsed" (2.1 +. (0.05 *. 6.0))
    (fst (Attempt_oracle.attempt_span old))

(* 0.3 h into an attempt at a 0.1 h stride: 0.3 /. 0.1 =
   2.9999999999999996 (exactly, 0.3 is stored below three 0.1s), so 2
   snapshots are complete. The old [floor (x + 1e-12)] counted 3. *)
let test_snapshots_by_boundary () =
  let r = snapshot 0.1 0.0 0.0 in
  Alcotest.(check int) "snapshots" 2 (Attempt.snapshots_by ~stride:0.1 ~restore:0.0 ~cap:100 0.3);
  Alcotest.(check (float 0.0)) "durable" 0.2
    (Attempt.durable_by r ~progress:0.0 ~total:5.0 0.3);
  let old =
    oracle_job { recovery = r; duration = 5.0; progress = 0.0; length = 10.0; kill = 0.0 }
  in
  Alcotest.(check (float 1e-12)) "old durable" 0.3
    (Attempt_oracle.progress_after_interrupt old ~elapsed:0.3)

(* A finish time a hair past the reservation is an expiry: the old
   [need <= l + 1e-9] completed the job. *)
let test_finish_within_reservation () =
  let r = snapshot 1.0 0.1 0.0 in
  (* 2.5 h of work: 2 snapshots, finish at 2.7 h. *)
  let length = 2.7 -. 1e-10 in
  let a = Attempt.close r ~length ~progress:0.0 ~total:2.5 ~interrupt:infinity in
  Alcotest.(check bool) "expired" false a.Attempt.finished;
  Alcotest.(check (float 0.0)) "elapsed" length a.Attempt.elapsed;
  Alcotest.(check (float 0.0)) "durable" 2.0 a.Attempt.progress;
  let old = oracle_job { recovery = r; duration = 2.5; progress = 0.0; length; kill = 0.0 } in
  Alcotest.(check bool) "old completed" true (snd (Attempt_oracle.attempt_span old))

(* An interrupt before the finish time keeps only completed snapshots;
   at or after it the job finishes. *)
let test_interrupt () =
  let r = snapshot 1.0 0.1 0.2 in
  (* Resumed from 1 h of 4: restore 0.2, snapshots at 1.3 and 2.4,
     finish at 0.2 + 3 + 0.2 = 3.4. *)
  let close interrupt = Attempt.close r ~length:10.0 ~progress:1.0 ~total:4.0 ~interrupt in
  let fin = (close infinity).Attempt.elapsed in
  Alcotest.(check (float 1e-12)) "finish time" 3.4 fin;
  let a = close 2.5 in
  Alcotest.(check bool) "interrupted" true a.Attempt.interrupted;
  Alcotest.(check (float 0.0)) "elapsed" 2.5 a.Attempt.elapsed;
  Alcotest.(check (float 0.0)) "durable" 3.0 a.Attempt.progress;
  let b = close fin in
  Alcotest.(check bool) "finished at the finish time" true b.Attempt.finished;
  Alcotest.(check (float 0.0)) "all work" 4.0 b.Attempt.progress;
  let restart = Attempt.close Attempt.Restart ~length:10.0 ~progress:0.0 ~total:4.0 ~interrupt:3.9 in
  Alcotest.(check (float 0.0)) "restart keeps nothing" 0.0 restart.Attempt.progress

let () =
  Alcotest.run "attempt"
    [
      ("validation", [ Alcotest.test_case "validate names the field" `Quick test_validate ]);
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_close_matches_oracle;
          Alcotest.test_case "snapshots to finish at 2.1 / 0.3" `Quick
            test_snapshots_to_finish_boundary;
          Alcotest.test_case "snapshots by 0.3 at stride 0.1" `Quick test_snapshots_by_boundary;
          Alcotest.test_case "finish a hair past the reservation" `Quick
            test_finish_within_reservation;
        ] );
      ("close", [ Alcotest.test_case "interrupt keeps completed snapshots" `Quick test_interrupt ]);
    ]
