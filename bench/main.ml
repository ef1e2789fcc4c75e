(* Benchmark harness: regenerates every table and figure of the paper
   (Sect. 5) from the experiment registry, then measures the
   observability overhead and the strategy daemon.

   Usage:
     dune exec bench/main.exe               # everything, paper parameters
     dune exec bench/main.exe -- quick      # everything, reduced parameters
     dune exec bench/main.exe -- table2     # a single artefact
     dune exec bench/main.exe -- obs --out BENCH_obs.json
                                            # instrumentation overhead

   Exits 1 when a requested artefact fails one of its sanity checks. *)

module J = Stochobs.Json
module R = Experiments.Registry

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let num v = J.Num v

(* ------------------------------------------------------------------ *)
(* Observability overhead: the same solve workload with the tracing    *)
(* sink and metrics registry off vs on. The artefact backs the         *)
(* "instrumentation is a branch when disabled" claim with a number,    *)
(* and its sanity check holds the overhead under 10%.                  *)
(* ------------------------------------------------------------------ *)

let obs_run ~quick:_ ~log:_ =
  let module M = Stochobs.Metrics in
  let cost = Stochastic_core.Cost_model.reservation_only in
  let d = Distributions.Lognormal.default in
  let budget = Robust.Solver.quick_budget in
  let solve obs =
    match Robust.Solver.solve ~obs ~budget ~seed:42 cost d with
    | Ok _ -> ()
    | Error e -> failwith (Robust.Solver.error_to_string e)
  in
  let time_batch reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do f () done;
    Sys.time () -. t0
  in
  (* The arms alternate over [rounds] short batches (~0.1 s each), so a
     slow spell on a shared host hits both; the overhead is the median
     of the per-round ratios, which one noisy batch cannot move. *)
  let rounds = 15 in
  solve Stochobs.Trace.null;
  let once = time_batch 1 (fun () -> solve Stochobs.Trace.null) in
  let reps = max 10 (min 5000 (int_of_float (0.1 /. Float.max 1e-5 once))) in
  let buf = Buffer.create 65536 in
  let sink =
    Stochobs.Trace.make ~clock:(Stochobs.Clock.fake ())
      (Stochobs.Writer.to_buffer buf)
  in
  let before = M.snapshot M.default in
  let noop = Array.make rounds 0.0 and on = Array.make rounds 0.0 in
  for i = 0 to rounds - 1 do
    noop.(i) <- time_batch reps (fun () -> solve Stochobs.Trace.null);
    M.set_enabled M.default true;
    on.(i) <- time_batch reps (fun () -> solve sink);
    M.set_enabled M.default false
  done;
  let delta = M.diff ~before ~after:(M.snapshot M.default) in
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let wall_noop = median noop and wall_on = median on in
  let evaluations =
    match List.assoc_opt "robust.solver.evaluations" delta with
    | Some (M.Counter_v n) -> n
    | _ -> 0
  in
  let overhead =
    median
      (Array.init rounds (fun i ->
           if noop.(i) > 0.0 then (on.(i) -. noop.(i)) /. noop.(i) else 0.0))
  in
  let json =
    J.Obj
      [
        ("workload", J.Str "robust-solve lognormal quick-budget");
        ("reps", num (float_of_int (rounds * reps)));
        ("wall_seconds_noop", num wall_noop);
        ("wall_seconds_instrumented", num wall_on);
        ("overhead", num overhead);
        ("evaluations", num (float_of_int evaluations));
        ("spans", num (float_of_int (Stochobs.Trace.spans_written sink)));
        ("trace_bytes", num (float_of_int (Buffer.length buf)));
      ]
  in
  {
    R.text =
      Printf.sprintf
        "no-op: %.4f s, instrumented: %.4f s per %d solves (median of %d \
         alternating rounds) -> overhead %.2f%% (%d spans, %d trace bytes)\n"
        wall_noop wall_on reps rounds (100.0 *. overhead)
        (Stochobs.Trace.spans_written sink)
        (Buffer.length buf);
    sanity = [ ("overhead below 10%", overhead < 0.10) ];
    json = Some json;
  }

let obs =
  {
    R.name = "obs";
    title = "Observability overhead: instrumented vs no-op solve";
    doc = "Time a quick solve with tracing and metrics off vs on.";
    run = obs_run;
  }

(* ------------------------------------------------------------------ *)
(* Strategy-as-a-service daemon, measured through its request loop.    *)
(* ------------------------------------------------------------------ *)

(* One request line through [server], timed: (latency, cached, ok). *)
let timed server line =
  let t0 = Unix.gettimeofday () in
  let resp, _stop = Stochserve.Server.handle_line server line in
  let dt = Unix.gettimeofday () -. t0 in
  let flag name j =
    match J.member name j with Some (J.Bool b) -> b | _ -> false
  in
  match Option.map J.of_string resp with
  | Some (Ok j) -> (dt, flag "cached" j, flag "ok" j)
  | Some (Error _) | None -> (dt, false, false)

(* Nearest-rank [p]-quantile of the latencies [l]; 0 when there are
   none. *)
let percentile l p =
  match Array.of_list l with
  | [||] -> 0.0
  | a ->
      Array.sort Float.compare a;
      Numerics.Stats.quantile_nearest_rank_sorted a p

(* N tenants with near-identical LogNormal fits hammer the solve
   endpoint, each under every one of [models] cost models. Because the
   cache key quantizes fitted parameters onto a relative grid, the
   fleet collapses onto a handful of solved entries per model: the
   artefact reports the measured hit rate and the cached/cold latency
   split (hit rate >= 0.9, cached p99 at least 10x below the cold
   p50).

   The sizes make both percentiles statistics rather than extremes: at
   least one cold solve per model puts the cold p50 at a median of 10
   or more, and over 1,000 cached solves leave at least 10 samples
   above the cached p99. The fleet runs five times on fresh servers
   and each latency is the best of the five, as [obs] takes the best
   of three batches, to shed scheduling noise. *)
type fleet = {
  fit_failures : int;
  solve_failures : int;
  hit_rate : float;
  cold : float list;  (** Cold solve latencies, seconds. *)
  cached : float list;  (** Cached solve latencies, seconds. *)
}

let serve_run ~quick ~log:_ =
  let tenants = if quick then 20 else 48 in
  let models = 10 in
  let rounds = 6 in
  let trials = 5 in
  let samples_per_tenant = 400 in
  let config =
    {
      Stochserve.Server.default_config with
      Stochserve.Server.grid = 0.1;
      budget = Robust.Solver.quick_budget;
    }
  in
  let fleet () =
    let server = Stochserve.Server.create config in
    let rng = Randomness.Rng.create ~seed:2024 () in
    (* Fit every tenant from its own jittered VBMQA-like trace: the
       fitted (mu, sigma) differ in the third decimal, well inside one
       0.1-grid bucket. *)
    let base = Distributions.Lognormal.make ~mu:7.1128 ~sigma:0.2039 in
    let fit_failures = ref 0 in
    for t = 1 to tenants do
      let samples =
        Distributions.Dist.samples base (Randomness.Rng.split rng)
          samples_per_tenant
      in
      let line =
        J.to_string ~indent:false
          (J.Obj
             [
               ("kind", J.Str "fit");
               ("id", num (float_of_int t));
               ("tenant", J.Str (Printf.sprintf "tenant-%03d" t));
               ( "samples",
                 J.Arr (Array.to_list samples |> List.map (fun s -> num s)) );
             ])
      in
      let _, _, ok = timed server line in
      if not ok then incr fit_failures
    done;
    (* Interleaved solve rounds over the whole fleet: round-major
       order, so every tenant's first solve lands before any tenant's
       second. Model [i] prices reserved time at [alpha = 2^i]. *)
    let cold = ref [] and cached = ref [] in
    let solve_failures = ref 0 in
    for round = 1 to rounds do
      for t = 1 to tenants do
        for i = 0 to models - 1 do
          let line =
            J.to_string ~indent:false
              (J.Obj
                 [
                   ("kind", J.Str "solve");
                   ("id", num (float_of_int ((((round * 1000) + t) * 100) + i)));
                   ( "dist",
                     J.Obj [ ("tenant", J.Str (Printf.sprintf "tenant-%03d" t)) ] );
                   ("model", J.Obj [ ("alpha", num (Float.ldexp 1.0 i)) ]);
                   ("strategy", J.Str "cascade");
                 ])
          in
          let dt, was_cached, ok = timed server line in
          if not ok then incr solve_failures
          else if was_cached then cached := dt :: !cached
          else cold := dt :: !cold
        done
      done
    done;
    let stats = Stochserve.Server.stats_json server in
    let hit_rate =
      match J.member "cache" stats with
      | Some c -> (
          match J.member "hit_rate" c with Some (J.Num v) -> v | _ -> 0.0)
      | None -> 0.0
    in
    {
      fit_failures = !fit_failures;
      solve_failures = !solve_failures;
      hit_rate;
      cold = !cold;
      cached = !cached;
    }
  in
  (* Every trial replays the same requests, so counts and hit rate
     agree across trials; the first trial reports them. *)
  let first = fleet () in
  let runs = first :: List.init (trials - 1) (fun _ -> fleet ()) in
  let { hit_rate; cold; cached; _ } = first in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  let fit_failures = total (fun r -> r.fit_failures) in
  let solve_failures = total (fun r -> r.solve_failures) in
  let best stat = List.fold_left (fun acc r -> Float.min acc (stat r)) infinity runs in
  let cold_p50 = best (fun r -> percentile r.cold 0.5) in
  let cached_p50 = best (fun r -> percentile r.cached 0.5) in
  let cached_p99 = best (fun r -> percentile r.cached 0.99) in
  let cold_over_cached = cold_p50 /. cached_p99 in
  let total_solves = tenants * models * rounds in
  let json =
    J.Obj
      [
        ("workload", J.Str "serve tenant-fleet lognormal quick-budget");
        ("tenants", num (float_of_int tenants));
        ("cost_models", num (float_of_int models));
        ("rounds", num (float_of_int rounds));
        ("trials", num (float_of_int trials));
        ("samples_per_tenant", num (float_of_int samples_per_tenant));
        ("grid", num config.Stochserve.Server.grid);
        ("solve_requests", num (float_of_int total_solves));
        ("cold_solves", num (float_of_int (List.length cold)));
        ("cached_solves", num (float_of_int (List.length cached)));
        ("hit_rate", num hit_rate);
        ("cold_p50_seconds", num cold_p50);
        ("cached_p50_seconds", num cached_p50);
        ("cached_p99_seconds", num cached_p99);
        ("cold_p50_over_cached_p99", num cold_over_cached);
      ]
  in
  {
    R.text =
      Printf.sprintf
        "%d tenants x %d cost models x %d rounds: %d cold, %d cached solves \
         -> hit rate %.3f\n\
         latency (best of %d fleets): cold p50 %.3f ms, cached p50 %.4f ms, \
         cached p99 %.4f ms\n\
         cold p50 / cached p99 = %.1fx (sanity check: at least 10x)\n"
        tenants models rounds (List.length cold) (List.length cached) hit_rate
        trials (1e3 *. cold_p50) (1e3 *. cached_p50) (1e3 *. cached_p99)
        cold_over_cached;
    sanity =
      [
        ("all fits succeed", fit_failures = 0);
        ("all solves succeed", solve_failures = 0);
        ("cache hit rate >= 0.9", hit_rate >= 0.9);
        ( "cached p99 at least 10x below cold p50",
          cached_p99 *. 10.0 <= cold_p50 );
      ];
    json = Some json;
  }

let serve =
  {
    R.name = "serve";
    title = "Serve daemon: tenant fleet with near-identical LogNormal fits";
    doc = "Cache hit rate and cold/cached latency of a tenant fleet.";
    run = serve_run;
  }

(* Solve a batch with --persist semantics, abandon the server the way a
   SIGKILL would (no close), then restart from the journal and replay
   the batch. The artefact reports the warm-restart hit rate (>= 0.9)
   and the cold vs warm latency split that quantifies what the journal
   buys. *)
let restart_run ~quick ~log:_ =
  let entries = if quick then 12 else 32 in
  let config =
    {
      Stochserve.Server.default_config with
      Stochserve.Server.budget = Robust.Solver.quick_budget;
      cache_capacity = 2 * entries;
    }
  in
  let lines =
    List.init entries (fun i ->
        J.to_string ~indent:false
          (J.Obj
             [
               ("kind", J.Str "solve");
               ("id", num (float_of_int (i + 1)));
               ( "dist",
                 J.Obj
                   [
                     ("family", J.Str "lognormal");
                     ("mu", num (1.0 +. (0.4 *. float_of_int i)));
                     ("sigma", num 0.25);
                   ] );
             ]))
  in
  let path = Filename.temp_file "stochserve-bench" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Cold run: every cold solve is journalled; the server is then
         abandoned without close, as an unclean death would leave it
         (appends flush record by record). Nearby parameters can share
         a quantized key, so the journal holds one record per distinct
         key, not per request — [appended] is the recovery target. *)
      let cold_times, cold_failures, appended =
        let journal = Stochserve.Journal.open_ path in
        let server = Stochserve.Server.create ~journal config in
        let times, failures =
          List.fold_left
            (fun (times, failures) line ->
              let dt, _, ok = timed server line in
              ((dt :: times), if ok then failures else failures + 1))
            ([], 0) lines
        in
        let appended =
          (Stochserve.Journal.stats journal).Stochserve.Journal.appended
        in
        (times, failures, appended)
      in
      (* Restart: recover the journal into a fresh server and replay. *)
      let journal = Stochserve.Journal.open_ path in
      let jstats = Stochserve.Journal.stats journal in
      let recovered = jstats.Stochserve.Journal.recovered_records in
      let skipped = jstats.Stochserve.Journal.skipped_corrupt in
      let server = Stochserve.Server.create ~journal config in
      let warm_times, warm_hits, warm_failures =
        List.fold_left
          (fun (times, hits, failures) line ->
            let dt, cached, ok = timed server line in
            ( dt :: times,
              (if cached then hits + 1 else hits),
              if ok then failures else failures + 1 ))
          ([], 0, 0) lines
      in
      Stochserve.Server.close server;
      let cold_p50 = percentile cold_times 0.5 in
      let warm_p50 = percentile warm_times 0.5 in
      let warm_hit_rate = float_of_int warm_hits /. float_of_int entries in
      let json =
        J.Obj
          [
            ("workload", J.Str "restart journal-recovery lognormal batch");
            ("entries", num (float_of_int entries));
            ("appended", num (float_of_int appended));
            ("recovered", num (float_of_int recovered));
            ("skipped_corrupt", num (float_of_int skipped));
            ("warm_hits", num (float_of_int warm_hits));
            ("warm_hit_rate", num warm_hit_rate);
            ("cold_p50_seconds", num cold_p50);
            ("warm_p50_seconds", num warm_p50);
          ]
      in
      {
        R.text =
          Printf.sprintf
            "%d solves (%d journalled): recovered %d (skipped %d) -> warm hit \
             rate %.3f\n\
             latency: cold p50 %.3f ms, warm p50 %.4f ms\n"
            entries appended recovered skipped warm_hit_rate (1e3 *. cold_p50)
            (1e3 *. warm_p50);
        sanity =
          [
            ("all cold solves succeed", cold_failures = 0);
            ("all warm solves succeed", warm_failures = 0);
            ("every record recovered", recovered = appended && skipped = 0);
            ("warm-restart hit rate >= 0.9", warm_hit_rate >= 0.9);
            ("warm p50 below cold p50", warm_p50 < cold_p50);
          ];
        json = Some json;
      })

let restart =
  {
    R.name = "restart";
    title = "Restart: journal recovery warms the cache";
    doc = "Warm-restart hit rate and latency after journal recovery.";
    run = restart_run;
  }

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Baseline comparison: "--compare BASELINE.json" reruns the artefact  *)
(* (which must also say --out FILE) and then checks every key the      *)
(* baseline file names against the fresh artefact. A baseline entry is *)
(* either a bare number (exact match) or an object                     *)
(*   {"value": V, "rel": R, "abs": A}                                  *)
(* tolerating |fresh - V| <= max(R * |V|, A). Keys the baseline names  *)
(* but the fresh artefact lacks are regressions; fresh-only keys are   *)
(* ignored (adding a field to an artefact must not break CI). Exit 1   *)
(* on any violation, so the artefact JSONs are CI-gateable.            *)
(* ------------------------------------------------------------------ *)

let read_json_file path =
  let module J = Stochobs.Json in
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          match J.of_string (really_input_string ic n) with
          | Ok j -> Ok j
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let compare_baseline ~baseline ~out =
  let module J = Stochobs.Json in
  let fail msg =
    Printf.eprintf "bench --compare: %s\n" msg;
    exit 1
  in
  let base =
    match read_json_file baseline with Ok j -> j | Error m -> fail m
  in
  let fresh = match read_json_file out with Ok j -> j | Error m -> fail m in
  let entries =
    match base with
    | J.Obj fields -> fields
    | _ -> fail (baseline ^ ": baseline must be a JSON object")
  in
  section (Printf.sprintf "Baseline comparison: %s vs %s" out baseline);
  let violations = ref 0 in
  List.iter
    (fun (key, spec) ->
      let expected, rel, abs_tol =
        match spec with
        | J.Num v -> (v, 0.0, 0.0)
        | J.Obj _ ->
            let num name fallback =
              match J.member name spec with
              | Some (J.Num v) -> v
              | _ -> fallback
            in
            (num "value" Float.nan, num "rel" 0.0, num "abs" 0.0)
        | _ -> (Float.nan, 0.0, 0.0)
      in
      if Float.is_nan expected then
        fail (Printf.sprintf "baseline key %S lacks a numeric value" key)
      else
        match J.member key fresh with
        | Some (J.Num got) ->
            let slack = Float.max (rel *. Float.abs expected) abs_tol in
            if Float.abs (got -. expected) <= slack then
              Printf.printf "[compare] ok         %-24s %g (baseline %g)\n" key
                got expected
            else begin
              incr violations;
              Printf.printf
                "[compare] REGRESSION %-24s %g vs baseline %g (slack %g)\n" key
                got expected slack
            end
        | _ ->
            incr violations;
            Printf.printf
              "[compare] REGRESSION %-24s missing from fresh artefact\n" key)
    entries;
  if !violations > 0 then begin
    Printf.eprintf "bench --compare: %d key(s) regressed against %s\n"
      !violations baseline;
    exit 1
  end
  else Printf.printf "[compare] all %d key(s) within tolerance\n"
         (List.length entries)

(* Pull the "--out FILE" / "--compare FILE" pairs out of the
   positional artefact names. *)
let rec split_opt flag acc = function
  | f :: path :: rest when f = flag -> (Some path, List.rev_append acc rest)
  | a :: rest -> split_opt flag (a :: acc) rest
  | [] -> (None, List.rev acc)

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let out, argv = split_opt "--out" [] argv in
  let compare_path, args = split_opt "--compare" [] argv in
  (match (compare_path, out) with
  | Some _, None ->
      Printf.eprintf "bench --compare requires --out FILE\n";
      exit 2
  | _ -> ());
  let quick = List.mem "quick" args in
  let entries = R.all @ [ obs; serve; restart ] in
  let artefacts = List.filter (fun a -> a <> "quick") args in
  let known a = a = "all" || List.exists (fun e -> e.R.name = a) entries in
  (match List.filter (fun a -> not (known a)) artefacts with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown artefact(s) %s; known: %s\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map (fun e -> e.R.name) entries));
      exit 2);
  let all = artefacts = [] || List.mem "all" artefacts in
  let want e = all || List.mem e.R.name artefacts in
  let cfg = R.config ~quick in
  Printf.printf
    "Reservation Strategies for Stochastic Jobs - benchmark harness\n";
  Printf.printf "parameters: M=%d, N=%d, n=%d, eps=%g, seed=%d%s\n"
    cfg.Experiments.Config.m cfg.Experiments.Config.n_mc
    cfg.Experiments.Config.disc_n cfg.Experiments.Config.eps
    cfg.Experiments.Config.seed
    (if quick then " (quick mode)" else "");
  let run e =
    let o = e.R.run ~quick ~log:Stochobs.Log.null in
    print_string (R.render e o);
    (match (out, o.R.json) with
    | Some path, Some json -> write_json path json
    | _ -> ());
    R.passed o
  in
  let failed = List.filter (fun e -> not (run e)) (List.filter want entries) in
  (match (compare_path, out) with
  | Some baseline, Some out -> compare_baseline ~baseline ~out
  | _ -> ());
  match failed with
  | [] -> ()
  | failed ->
      Printf.eprintf "bench: sanity checks failed in %s\n"
        (String.concat ", " (List.map (fun e -> e.R.name) failed));
      exit 1
