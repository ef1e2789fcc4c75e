(* Fault injection and checkpoint-aware recovery: seeded failure
   traces are deterministic and hit their configured MTBF; the engine
   drives every failure-killed job to completion under unlimited
   retries; checkpointed progress is monotone across attempts; and a
   zero failure rate is bit-for-bit the failure-free engine. *)

module Faults = Scheduler.Faults
module Engine = Scheduler.Engine
module Job = Scheduler.Job
module Policy = Scheduler.Policy
module Workload = Scheduler.Workload
module Metrics = Scheduler.Metrics
module Attempt = Stochastic_core.Attempt

let models =
  [
    ("exponential", Faults.exponential ~mtbf:10.0);
    ("weibull-aging", Faults.weibull ~mtbf:10.0 ~shape:1.5);
    ("weibull-infant", Faults.weibull ~mtbf:10.0 ~shape:0.8);
    ("spot", Faults.spot ~mtbf:10.0 ());
  ]

let ckpt = Attempt.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }

(* Small jobs (0.1x-0.4x of LogNormal(3, 0.5)) so restart-from-scratch
   execution still terminates at MTBF 20 h. *)
let small_workload ?recovery ~seed ~jobs () =
  let d = Distributions.Lognormal.default in
  let sequence = Stochastic_core.Heuristics.mean_by_mean d in
  let spec =
    Workload.make_spec ~nodes_min:1 ~nodes_max:4 ~scale_min:0.1 ~scale_max:0.4
      ~jobs ~arrival_rate:1.0 ()
  in
  let rng = Randomness.Rng.create ~seed () in
  Workload.generate ?recovery spec d ~sequence rng

let harsh_faults ~seed = Faults.make ~seed ~mean_repair:0.25 (Faults.exponential ~mtbf:20.0)

(* ------------------------------------------------------------------ *)
(* Trace determinism                                                   *)
(* ------------------------------------------------------------------ *)

let prop_trace_deterministic =
  QCheck.Test.make ~count:60 ~name:"trace is a pure function of (config, node)"
    QCheck.(pair (int_range 0 10_000) (int_range 0 (List.length models - 1)))
    (fun (seed, mi) ->
      let model = snd (List.nth models mi) in
      let config = Faults.make ~seed ~mean_repair:0.1 model in
      let t1 = Faults.create config ~nodes:8 in
      let t2 = Faults.create config ~nodes:8 in
      (* Consume other nodes' streams first on one side: node 3's trace
         must not depend on the interleaving. *)
      ignore (Faults.trace t1 ~node:0 ~horizon:200.0);
      ignore (Faults.trace t1 ~node:7 ~horizon:200.0);
      Faults.trace t1 ~node:3 ~horizon:500.0
      = Faults.trace t2 ~node:3 ~horizon:500.0)

let test_trace_shape () =
  List.iter
    (fun (name, model) ->
      let config = Faults.make ~seed:11 ~mean_repair:0.2 model in
      let t = Faults.create config ~nodes:2 in
      let trace = Faults.trace t ~node:0 ~horizon:2000.0 in
      Alcotest.(check bool) (name ^ ": nonempty") true (trace <> []);
      let last = ref 0.0 in
      List.iter
        (fun (down, up) ->
          if down < !last then Alcotest.failf "%s: overlapping outages" name;
          if up < down then Alcotest.failf "%s: repair precedes failure" name;
          last := up)
        trace)
    models

let test_infinite_mtbf_never_fails () =
  let config = Faults.make ~seed:3 (Faults.exponential ~mtbf:infinity) in
  let t = Faults.create config ~nodes:4 in
  Alcotest.(check bool) "uptime infinite" true
    (* stochlint: allow FLOAT_EQ — infinity is the no-failure sentinel *)
    (Faults.uptime t ~node:0 = infinity);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "empty trace" []
    (Faults.trace t ~node:1 ~horizon:1e6);
  Alcotest.(check (float 1e-12)) "rate zero" 0.0 (Faults.rate config)

(* ------------------------------------------------------------------ *)
(* Typed spot-parameter validation: one test per bad field.            *)
(* ------------------------------------------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_spot_rejects name expect_field f =
  match f () with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error e ->
      Alcotest.(check string) (name ^ ": field") expect_field e.Faults.field;
      (* The rendered message carries the field, the offending value
         and the constraint — the operator-facing contract. *)
      let msg = Faults.param_error_to_string e in
      Alcotest.(check bool) (name ^ ": message names field") true
        (String.length msg > 0
        && contains ~affix:expect_field msg)

let test_spot_rejects_bad_mtbf () =
  check_spot_rejects "mtbf zero" "mtbf" (fun () ->
      Faults.spot_checked ~mtbf:0.0 ());
  check_spot_rejects "mtbf negative" "mtbf" (fun () ->
      Faults.spot_checked ~mtbf:(-5.0) ());
  check_spot_rejects "mtbf nan" "mtbf" (fun () ->
      Faults.spot_checked ~mtbf:Float.nan ())

let test_spot_rejects_bad_burst_prob () =
  check_spot_rejects "burst_prob negative" "burst_prob" (fun () ->
      Faults.spot_checked ~burst_prob:(-0.1) ~mtbf:10.0 ());
  check_spot_rejects "burst_prob one" "burst_prob" (fun () ->
      Faults.spot_checked ~burst_prob:1.0 ~mtbf:10.0 ());
  check_spot_rejects "burst_prob nan" "burst_prob" (fun () ->
      Faults.spot_checked ~burst_prob:Float.nan ~mtbf:10.0 ())

let test_spot_rejects_bad_burst_factor () =
  check_spot_rejects "burst_factor below one" "burst_factor" (fun () ->
      Faults.spot_checked ~burst_factor:0.5 ~mtbf:10.0 ());
  check_spot_rejects "burst_factor nan" "burst_factor" (fun () ->
      Faults.spot_checked ~burst_factor:Float.nan ~mtbf:10.0 ())

let test_spot_checked_accepts_valid () =
  (match Faults.spot_checked ~mtbf:10.0 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "defaults rejected: %s" (Faults.param_error_to_string e));
  (* Infinite MTBF is the no-failure sentinel, and the unchecked
     constructor raises the rendered error for bad input. *)
  (match Faults.spot_checked ~mtbf:infinity () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "infinite mtbf rejected: %s" (Faults.param_error_to_string e));
  match Faults.spot ~mtbf:(-1.0) () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "raise names field" true
        (contains ~affix:"mtbf" msg)
  | _ -> Alcotest.fail "spot ~mtbf:(-1.0) accepted"

(* ------------------------------------------------------------------ *)
(* Empirical MTBF                                                      *)
(* ------------------------------------------------------------------ *)

let test_empirical_mtbf () =
  List.iter
    (fun (name, model) ->
      let config = Faults.make ~seed:17 ~mean_repair:0.0 model in
      let t = Faults.create config ~nodes:100 in
      let sum = ref 0.0 and n = ref 0 in
      for node = 0 to 99 do
        for _ = 1 to 300 do
          sum := !sum +. Faults.uptime t ~node;
          incr n
        done
      done;
      let mean = !sum /. float_of_int !n in
      let mtbf = Faults.mtbf config in
      if Float.abs (mean -. mtbf) > 0.05 *. mtbf then
        Alcotest.failf "%s: empirical MTBF %.3f vs configured %.3f" name mean
          mtbf)
    models

let test_mean_repair () =
  let config = Faults.make ~seed:23 ~mean_repair:0.5 (Faults.exponential ~mtbf:5.0) in
  let t = Faults.create config ~nodes:50 in
  let sum = ref 0.0 in
  for node = 0 to 49 do
    for _ = 1 to 200 do
      sum := !sum +. Faults.downtime t ~node
    done
  done;
  let mean = !sum /. 10_000.0 in
  Alcotest.(check (float 0.03)) "mean repair" 0.5 mean

(* ------------------------------------------------------------------ *)
(* Engine recovery                                                     *)
(* ------------------------------------------------------------------ *)

let all_done jobs =
  Array.for_all (fun j -> Job.state j = Job.Done) jobs

let prop_unbounded_retries_complete =
  QCheck.Test.make ~count:8
    ~name:"every failure-killed job reaches Done under unlimited retries"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let jobs = small_workload ~seed ~jobs:40 () in
      let r =
        Engine.run
          (Engine.make_config ~faults:(harsh_faults ~seed:(seed + 1))
             ~nodes:8 ~policy:Policy.Easy_backfill ())
          jobs
      in
      r.Engine.abandoned = 0 && all_done r.Engine.jobs
      && r.Engine.node_failures > 0)

let prop_checkpoint_progress_monotone =
  QCheck.Test.make ~count:8
    ~name:"checkpointed progress is monotone across attempts"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let jobs = small_workload ~recovery:ckpt ~seed ~jobs:40 () in
      let r =
        Engine.run
          (Engine.make_config ~faults:(harsh_faults ~seed:(seed + 2))
             ~nodes:8 ~policy:Policy.Easy_backfill ())
          jobs
      in
      all_done r.Engine.jobs
      && Array.for_all
           (fun j ->
             let attempts = Job.attempts j in
             let ok = ref true and prev = ref 0.0 in
             Array.iter
               (fun a ->
                 if a.Job.progress_after < !prev -. 1e-9 then ok := false;
                 prev := a.Job.progress_after)
               attempts;
             (* The closing attempt must finish the whole job. *)
             !ok
             && Float.abs
                  (attempts.(Array.length attempts - 1).Job.progress_after
                  -. Job.duration j)
                < 1e-9)
           r.Engine.jobs)

let test_capped_retries_abandon () =
  let jobs = small_workload ~seed:5 ~jobs:60 () in
  let r =
    Engine.run
      (Engine.make_config
         ~faults:(Faults.make ~seed:9 ~mean_repair:0.25 (Faults.exponential ~mtbf:5.0))
         ~retry:(Engine.make_retry ~max_retries:0 ())
         ~nodes:8 ~policy:Policy.Easy_backfill ())
      jobs
  in
  Alcotest.(check bool) "some jobs abandoned" true (r.Engine.abandoned > 0);
  let done_count =
    Array.fold_left
      (fun n j -> if Job.state j = Job.Done then n + 1 else n)
      0 r.Engine.jobs
  in
  Alcotest.(check int) "done + abandoned = jobs" 60 (done_count + r.Engine.abandoned);
  Array.iter
    (fun j ->
      if Job.state j = Job.Abandoned && Job.failures j <> 1 then
        Alcotest.failf "job %d abandoned after %d failures (budget 0)"
          (Job.id j) (Job.failures j))
    r.Engine.jobs

(* The scheduler.engine.run span and Engine.result are the two places
   the run's event, node-failure and abandon counts live; read back
   through Trace_read, the span's attributes must equal the result's
   fields. The capped, fault-injected run makes all three nonzero. *)
let test_run_span_matches_result () =
  let module Tr = Stochobs_analysis.Trace_read in
  let jobs = small_workload ~seed:5 ~jobs:60 () in
  let buf = Buffer.create 4096 in
  let r =
    Engine.run
      (Engine.make_config
         ~obs:(Stochobs.Trace.make (Stochobs.Writer.to_buffer buf))
         ~faults:(Faults.make ~seed:9 ~mean_repair:0.25 (Faults.exponential ~mtbf:5.0))
         ~retry:(Engine.make_retry ~max_retries:1 ())
         ~nodes:8 ~policy:Policy.Easy_backfill ())
      jobs
  in
  Alcotest.(check bool) "some jobs abandoned" true (r.Engine.abandoned > 0);
  let trace = Tr.of_string (Buffer.contents buf) in
  Alcotest.(check int) "no damaged lines" 0 trace.Tr.skipped;
  let span =
    match
      List.filter (fun sp -> sp.Tr.name = "scheduler.engine.run") (Tr.spans trace)
    with
    | [ sp ] -> sp
    | l -> Alcotest.failf "%d scheduler.engine.run spans, expected 1" (List.length l)
  in
  let attr key =
    match List.assoc_opt key span.Tr.attrs with
    | Some (Stochobs.Json.Num v) when Float.is_integer v -> int_of_float v
    | _ -> Alcotest.failf "span attribute %s missing or not an integer" key
  in
  Alcotest.(check int) "events" r.Engine.events (attr "events");
  Alcotest.(check int) "node_failures" r.Engine.node_failures (attr "node_failures");
  Alcotest.(check int) "abandoned" r.Engine.abandoned (attr "abandoned")

let test_failure_kills_recorded () =
  let jobs = small_workload ~seed:7 ~jobs:40 () in
  let r =
    Engine.run
      (Engine.make_config ~faults:(harsh_faults ~seed:13) ~nodes:8
         ~policy:Policy.Easy_backfill ())
      jobs
  in
  let kills =
    Array.fold_left
      (fun n j ->
        n
        + Array.fold_left
            (fun n a -> if a.Job.outcome = Job.Node_failure then n + 1 else n)
            0 (Job.attempts j))
      0 r.Engine.jobs
  in
  Alcotest.(check bool) "failure kills recorded in histories" true (kills > 0);
  let s = Metrics.summarize ~model:Stochastic_core.Cost_model.neuro_hpc r in
  Alcotest.(check int) "summary agrees" kills s.Metrics.failure_kills;
  Alcotest.(check bool) "failure node-time accounted" true
    (s.Metrics.failure_node_time > 0.0)

(* ------------------------------------------------------------------ *)
(* Zero-failure-rate equivalence                                       *)
(* ------------------------------------------------------------------ *)

let test_zero_rate_equivalence () =
  let model = Stochastic_core.Cost_model.neuro_hpc in
  let run faults =
    let jobs = small_workload ~seed:21 ~jobs:80 () in
    Engine.run
      (Engine.make_config ?faults ~nodes:8 ~policy:Policy.Easy_backfill ())
      jobs
  in
  let bare = run None in
  let zero =
    run (Some (Faults.make ~seed:5 (Faults.exponential ~mtbf:infinity)))
  in
  Alcotest.(check int) "same event count" bare.Engine.events zero.Engine.events;
  Alcotest.(check int) "no failures" 0 zero.Engine.node_failures;
  (* Bit-for-bit: the whole summary, per-job metrics included. *)
  let s_bare = Metrics.summarize ~model bare in
  let s_zero = Metrics.summarize ~model zero in
  Alcotest.(check bool) "summaries identical" true
    (compare s_bare s_zero = 0)

let test_fault_run_deterministic () =
  let model = Stochastic_core.Cost_model.neuro_hpc in
  let run () =
    let jobs = small_workload ~recovery:ckpt ~seed:31 ~jobs:60 () in
    Engine.run
      (Engine.make_config ~faults:(harsh_faults ~seed:37) ~nodes:8
         ~policy:Policy.Easy_backfill ())
      jobs
  in
  let a = Metrics.summarize ~model (run ()) in
  let b = Metrics.summarize ~model (run ()) in
  Alcotest.(check bool) "same seed, same config => identical summaries" true
    (compare a b = 0);
  Alcotest.(check bool) "faults actually fired" true (a.Metrics.node_failures > 0)

(* ------------------------------------------------------------------ *)
(* Fault-tolerance sweep                                               *)
(* ------------------------------------------------------------------ *)

let test_fault_tolerance_sweep () =
  let t =
    Experiments.Fault_tolerance.run ~cfg:Experiments.Config.quick ~jobs:80 ()
  in
  List.iter
    (fun (label, ok) ->
      if not ok then Alcotest.failf "sanity failed: %s" label)
    (Experiments.Fault_tolerance.sanity t)

let () =
  Alcotest.run "faults"
    [
      ( "traces",
        [
          Alcotest.test_case "outages well-formed" `Quick test_trace_shape;
          Alcotest.test_case "infinite MTBF never fails" `Quick
            test_infinite_mtbf_never_fails;
          Alcotest.test_case "empirical MTBF matches" `Quick test_empirical_mtbf;
          Alcotest.test_case "empirical repair matches" `Quick test_mean_repair;
        ] );
      ( "spot-params",
        [
          Alcotest.test_case "rejects bad mtbf" `Quick
            test_spot_rejects_bad_mtbf;
          Alcotest.test_case "rejects bad burst_prob" `Quick
            test_spot_rejects_bad_burst_prob;
          Alcotest.test_case "rejects bad burst_factor" `Quick
            test_spot_rejects_bad_burst_factor;
          Alcotest.test_case "accepts valid, raise names field" `Quick
            test_spot_checked_accepts_valid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "capped retries abandon" `Quick
            test_capped_retries_abandon;
          Alcotest.test_case "run span matches result" `Quick
            test_run_span_matches_result;
          Alcotest.test_case "failure kills recorded" `Quick
            test_failure_kills_recorded;
          Alcotest.test_case "zero rate = failure-free, bit-for-bit" `Quick
            test_zero_rate_equivalence;
          Alcotest.test_case "fault runs replay bit-for-bit" `Quick
            test_fault_run_deterministic;
          Alcotest.test_case "fault-tolerance sweep sanity" `Slow
            test_fault_tolerance_sweep;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_trace_deterministic;
          QCheck_alcotest.to_alcotest prop_unbounded_retries_complete;
          QCheck_alcotest.to_alcotest prop_checkpoint_progress_monotone;
        ] );
    ]
