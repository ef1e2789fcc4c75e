(* Tests for the discrete-event cluster scheduler. *)

module EQ = Scheduler.Event_queue
module Policy = Scheduler.Policy
module Job = Scheduler.Job
module Engine = Scheduler.Engine
module Workload = Scheduler.Workload
module Metrics = Scheduler.Metrics
module C = Stochastic_core.Cost_model
module H = Stochastic_core.Heuristics

(* ------------------------- event queue ---------------------------- *)

let prop_heap_order =
  QCheck.Test.make ~count:300
    ~name:"event queue pops in (time, insertion) order"
    QCheck.(list (float_bound_inclusive 10.0))
    (fun times ->
      let q = EQ.create () in
      List.iteri (fun i t -> EQ.push q ~time:t i) times;
      let rec drain acc =
        match EQ.pop q with
        | None -> List.rev acc
        | Some (t, i) -> drain ((t, i) :: acc)
      in
      let popped = drain [] in
      let rec sorted = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && sorted rest
        | _ -> true
      in
      List.length popped = List.length times && sorted popped)

let test_event_queue_basics () =
  let q = EQ.create () in
  EQ.push q ~time:2.0 "b";
  EQ.push q ~time:1.0 "a";
  EQ.push q ~time:2.0 "c";
  Alcotest.(check (option (pair (float 0.0) string)))
    "first" (Some (1.0, "a")) (EQ.pop q);
  (* Equal times come out in insertion order. *)
  Alcotest.(check (option (pair (float 0.0) string)))
    "tie 1" (Some (2.0, "b")) (EQ.pop q);
  Alcotest.(check (option (pair (float 0.0) string)))
    "tie 2" (Some (2.0, "c")) (EQ.pop q);
  Alcotest.(check bool) "drained" true (EQ.pop q = None);
  Alcotest.(check bool) "nan rejected" true
    (try EQ.push q ~time:Float.nan "x"; false
     with Invalid_argument _ -> true)

(* --------------------------- policies ----------------------------- *)

(* Independent availability-timeline computation: earliest instant at
   which [needed] nodes are simultaneously free, with [busy] the
   (release_time, nodes) pairs of jobs occupying nodes from time 0. *)
let earliest_fit ~total ~needed busy =
  let used = List.fold_left (fun acc (_, n) -> acc + n) 0 busy in
  let free = total - used in
  if needed <= free then 0.0
  else
    let sorted = List.sort compare busy in
    let rec go free = function
      | [] -> infinity
      | (ends, n) :: rest ->
          let free = free + n in
          if free >= needed then ends else go free rest
    in
    go free sorted

let easy_instance =
  QCheck.make ~print:(fun (total, running, queue) ->
      Printf.sprintf "total=%d running=[%s] queue=[%s]" total
        (String.concat ";"
           (List.map (fun (e, n) -> Printf.sprintf "(%g,%d)" e n) running))
        (String.concat ";"
           (List.map (fun (n, r) -> Printf.sprintf "(%d,%g)" n r) queue)))
    QCheck.Gen.(
      int_range 4 32 >>= fun total ->
      list_size (int_range 0 8)
        (pair (float_range 0.1 50.0) (int_range 1 8))
      >>= fun running_raw ->
      (* Keep only running jobs that fit the machine. *)
      let running, _ =
        List.fold_left
          (fun (acc, used) (e, n) ->
            if used + n <= total then ((e, n) :: acc, used + n)
            else (acc, used))
          ([], 0) running_raw
      in
      list_size (int_range 1 10)
        (pair (int_range 1 total) (float_range 0.1 20.0))
      >>= fun queue -> return (total, running, queue))

let prop_easy_invariant =
  QCheck.Test.make ~count:500
    ~name:"EASY backfilling never delays the queue head" easy_instance
    (fun (total, running, queue) ->
      let used = List.fold_left (fun acc (_, n) -> acc + n) 0 running in
      let free = total - used in
      let queue_arr = Array.of_list queue in
      let starts =
        Policy.select Policy.Easy_backfill ~now:0.0 ~free ~running queue_arr
      in
      (* Started jobs must fit in the free nodes. *)
      let started_nodes =
        List.fold_left (fun acc i -> acc + fst queue_arr.(i)) 0 starts
      in
      if started_nodes > free then false
      else
        (* The queue head is the first job not started now. *)
        match
          List.find_opt (fun i -> not (List.mem i starts))
            (List.init (Array.length queue_arr) Fun.id)
        with
        | None -> true
        | Some head ->
            let head_nodes, _ = queue_arr.(head) in
            let to_busy idx =
              let nodes, req = queue_arr.(idx) in
              (req, nodes)
            in
            let without =
              running
              @ List.filter_map
                  (fun i -> if i < head then Some (to_busy i) else None)
                  starts
            in
            let with_backfill =
              running @ List.map to_busy starts
            in
            let shadow = earliest_fit ~total ~needed:head_nodes without in
            let actual =
              earliest_fit ~total ~needed:head_nodes with_backfill
            in
            actual <= shadow +. 1e-9)

let test_fcfs_blocks_in_order () =
  (* Head needs 4 nodes, 2 free: FCFS starts nothing even though the
     1-node job behind it would fit; EASY backfills it. *)
  let queue = [| (4, 10.0); (1, 1.0) |] in
  let running = [ (5.0, 2) ] in
  let fcfs = Policy.select Policy.Fcfs ~now:0.0 ~free:2 ~running queue in
  let easy =
    Policy.select Policy.Easy_backfill ~now:0.0 ~free:2 ~running queue
  in
  Alcotest.(check (list int)) "fcfs starts nothing" [] fcfs;
  Alcotest.(check (list int)) "easy backfills job 1" [ 1 ] easy

let test_easy_respects_shadow () =
  (* Head needs all 4 nodes at shadow time 5; a 2-node backfill with a
     6h request would delay it, a 4h one would not. *)
  let running = [ (5.0, 2) ] in
  let long = [| (4, 10.0); (2, 6.0) |] in
  let short = [| (4, 10.0); (2, 4.0) |] in
  Alcotest.(check (list int)) "long backfill rejected" []
    (Policy.select Policy.Easy_backfill ~now:0.0 ~free:2 ~running long);
  Alcotest.(check (list int)) "short backfill accepted" [ 1 ]
    (Policy.select Policy.Easy_backfill ~now:0.0 ~free:2 ~running short)

(* ------------------------- engine runs ---------------------------- *)

let small_run ?(jobs = 200) ?(nodes = 16) ?(seed = 1) policy =
  let d = Distributions.Lognormal.default in
  let sequence = H.mean_by_mean d in
  let arrival_rate =
    Workload.rate_for_load ~nodes_max:4 ~scale_min:0.5 ~scale_max:2.0
      ~sequence ~load:1.1 ~cluster_nodes:nodes d
  in
  let spec =
    Workload.make_spec ~nodes_max:4 ~scale_min:0.5 ~scale_max:2.0 ~jobs
      ~arrival_rate ()
  in
  let rng = Randomness.Rng.create ~seed () in
  let workload = Workload.generate spec d ~sequence rng in
  Engine.run (Engine.make_config ~nodes ~policy ()) workload

let test_determinism () =
  let summary r = Metrics.summarize ~model:C.neuro_hpc r in
  let a = small_run Policy.Easy_backfill and b = small_run Policy.Easy_backfill in
  let sa = summary a and sb = summary b in
  Alcotest.(check (float 0.0)) "makespan identical"
    a.Engine.makespan b.Engine.makespan;
  Alcotest.(check (float 0.0)) "busy node-time identical"
    a.Engine.busy_node_time b.Engine.busy_node_time;
  Alcotest.(check (float 0.0)) "mean wait identical"
    sa.Metrics.mean_wait sb.Metrics.mean_wait;
  Array.iteri
    (fun i (m : Metrics.job_metrics) ->
      let m' = sb.Metrics.per_job.(i) in
      if m.Metrics.response <> m'.Metrics.response then
        Alcotest.failf "job %d response differs" i)
    sa.Metrics.per_job

let test_utilization_bounds () =
  List.iter
    (fun seed ->
      List.iter
        (fun policy ->
          let r = small_run ~seed policy in
          let u = Engine.utilization r in
          Alcotest.(check bool)
            (Printf.sprintf "utilization in [0,1] (seed %d, %s)" seed
               (Policy.name policy))
            true
            (u >= 0.0 && u <= 1.0);
          Alcotest.(check bool) "makespan positive" true
            (r.Engine.makespan > 0.0);
          Array.iter
            (fun j ->
              if Job.state j <> Job.Done then
                Alcotest.failf "job %d not done" (Job.id j);
              if Job.stretch j < 1.0 -. 1e-9 then
                Alcotest.failf "job %d stretch %g < 1" (Job.id j)
                  (Job.stretch j))
            r.Engine.jobs)
        Policy.all)
    [ 1; 2; 3; 4; 5 ]

let test_easy_beats_fcfs_utilization () =
  let fcfs = small_run ~jobs:400 Policy.Fcfs in
  let easy = small_run ~jobs:400 Policy.Easy_backfill in
  Alcotest.(check bool) "easy utilization strictly above fcfs" true
    (Engine.utilization easy > Engine.utilization fcfs)

let test_zero_contention_matches_simulator () =
  (* With a machine far larger than the workload ever needs, every
     attempt starts the instant it is submitted: per-job cost, attempt
     count and reserved time must match the single-job simulator. *)
  let d = Distributions.Lognormal.default in
  let m = C.neuro_hpc in
  let sequence = H.mean_by_mean d in
  let spec = Workload.make_spec ~jobs:80 ~arrival_rate:0.01 () in
  let rng = Randomness.Rng.create ~seed:9 () in
  let workload = Workload.generate spec d ~sequence rng in
  let r =
    Engine.run (Engine.make_config ~nodes:10_000 ~policy:Policy.Fcfs ()) workload
  in
  Array.iter
    (fun j ->
      let o = Platform.Simulator.run_job m sequence ~duration:(Job.duration j) in
      let cost = Metrics.job_cost m j in
      if Float.abs (cost -. o.Platform.Simulator.total_cost) > 1e-9 then
        Alcotest.failf "job %d cost %.12g <> run_job %.12g" (Job.id j) cost
          o.Platform.Simulator.total_cost;
      Alcotest.(check int)
        (Printf.sprintf "job %d attempts" (Job.id j))
        o.Platform.Simulator.reservations_used
        (Array.length (Job.attempts j));
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "job %d no wait" (Job.id j))
        0.0 (Job.total_wait j);
      (* Back-to-back attempts: response = failed reservations + X. *)
      let atts = Job.attempts j in
      let last = atts.(Array.length atts - 1) in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "job %d response" (Job.id j))
        (o.Platform.Simulator.total_reserved -. last.Job.requested
        +. Job.duration j)
        (Job.response j))
    r.Engine.jobs

let test_engine_rejects_oversized_job () =
  let sequence = List.to_seq [ 4.0 ] in
  let j = Job.make ~id:0 ~nodes:8 ~arrival:0.0 ~duration:2.0 sequence in
  Alcotest.(check bool) "oversized job rejected" true
    (try
       ignore
         (Engine.run
            (Engine.make_config ~nodes:4 ~policy:Policy.Fcfs ())
            [| j |]);
       false
     with Invalid_argument _ -> true)

let test_job_validation () =
  let s = List.to_seq [ 1.0; 2.0 ] in
  let invalid f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero nodes" true
    (invalid (fun () -> ignore (Job.make ~id:0 ~nodes:0 ~arrival:0.0 ~duration:1.0 s)));
  Alcotest.(check bool) "negative arrival" true
    (invalid (fun () ->
         ignore (Job.make ~id:0 ~nodes:1 ~arrival:(-1.0) ~duration:1.0 s)));
  Alcotest.(check bool) "uncovered duration" true
    (try
       ignore (Job.make ~id:0 ~nodes:1 ~arrival:0.0 ~duration:3.0 s);
       false
     with Stochastic_core.Sequence.Not_covered _ -> true)

(* 20 equal jobs through one node: completion times are exactly
   1, 2, ..., 20 hours, so the stretch sample is 1..20 and the
   nearest-rank p95 must be the 19th order statistic (19.0) — the
   interpolated type-7 quantile would report 19.05, a stretch no job
   ever had. Handcrafted regression for Metrics.p95_stretch. *)
let test_p95_stretch_nearest_rank () =
  let s = List.to_seq [ 1.0 ] in
  let jobs =
    Array.init 20 (fun i -> Job.make ~id:i ~nodes:1 ~arrival:0.0 ~duration:1.0 s)
  in
  let result =
    Engine.run (Engine.make_config ~nodes:1 ~policy:Policy.Fcfs ()) jobs
  in
  let summary = Metrics.summarize ~model:C.reservation_only result in
  Alcotest.(check int) "all done" 20 summary.Metrics.completed;
  Alcotest.(check (float 1e-9)) "mean stretch" 10.5 summary.Metrics.mean_stretch;
  Alcotest.(check (float 1e-9)) "p95 stretch is an observed value" 19.0
    summary.Metrics.p95_stretch;
  Alcotest.(check (float 1e-9)) "max stretch" 20.0 summary.Metrics.max_stretch

let () =
  Alcotest.run "scheduler"
    [
      ( "event-queue",
        [
          QCheck_alcotest.to_alcotest prop_heap_order;
          Alcotest.test_case "basics" `Quick test_event_queue_basics;
        ] );
      ( "policy",
        [
          QCheck_alcotest.to_alcotest prop_easy_invariant;
          Alcotest.test_case "fcfs blocks in order" `Quick
            test_fcfs_blocks_in_order;
          Alcotest.test_case "easy respects shadow" `Quick
            test_easy_respects_shadow;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic under fixed seed" `Quick
            test_determinism;
          Alcotest.test_case "utilization bounds" `Quick
            test_utilization_bounds;
          Alcotest.test_case "easy beats fcfs" `Quick
            test_easy_beats_fcfs_utilization;
          Alcotest.test_case "zero contention matches run_job" `Quick
            test_zero_contention_matches_simulator;
          Alcotest.test_case "oversized job rejected" `Quick
            test_engine_rejects_oversized_job;
          Alcotest.test_case "job validation" `Quick test_job_validation;
          Alcotest.test_case "p95 stretch is nearest-rank" `Quick
            test_p95_stretch_nearest_rank;
        ] );
    ]
