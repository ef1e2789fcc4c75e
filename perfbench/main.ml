(* The benchmark program.

     main.exe --workload solve|spot|serve|paper --seed N --seconds S
              --trace 0|1 [--out DIR]

   Single process, single thread, closed loop: each op runs only after
   the previous one returned. With [--trace 0] it prints the end-to-end
   metrics, with [--trace 1] the per-layer metrics of a traced run; the
   last line of standard output is the JSON result. See README.md. *)

open Common
module M = Stochobs.Metrics
module Trace = Stochobs.Trace
module J = Stochobs.Json
module TR = Stochobs_analysis.Trace_read
module SS = Stochobs_analysis.Span_stats

let workloads = [ W_solve.workload; W_spot.workload; W_serve.workload; W_paper.workload ]

type args = { workload : Workload.t; seed : int; seconds : float; trace : bool; out : string }

let usage () =
  prerr_endline
    "usage: main.exe --workload solve|spot|serve|paper --seed N --seconds S --trace 0|1 \
     [--out DIR]";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match List.find_opt (fun w -> w.Workload.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  {
    workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace = trace = 1;
    out = Option.value (List.assoc_opt "out" kv) ~default:"_perfbench";
  }

(* ------------------------------------------------------------------ *)
(* Replicas: timed set-ups, then whole passes.                         *)

type replica = {
  setups : float list;  (** Seconds of each timed set-up. *)
  instance : Workload.instance;
  passes : outcome array list;  (** In run order. *)
  digests : string list;  (** Per pass, the digest of its exact outputs. *)
  pass_walls : float list;  (** Per pass, seconds spent in its ops. *)
}

let digest pass =
  Digest.string (String.concat "\n" (Array.to_list (Array.map (fun o -> o.exact) pass)))

(* Runs [passes] whole passes; [first] wraps each op of the first pass,
   [before_first] runs after the set-up, just before that pass, and
   [after_first] once it ends (the traced run counts in between). A
   cheap set-up is timed again after every op, outside the pass's wall
   time. Exact outputs are kept for the first pass only; later passes
   keep their digest. *)
let run_replica (w : Workload.t) ~seed ~view ~obs ~passes ?(first = fun f -> f ())
    ?(before_first = ignore) ?(after_first = ignore) () =
  let setup () = w.Workload.setup ~seed ~view ~obs in
  let t0, instance = time setup in
  let setups = ref [ t0 ] in
  let n = w.Workload.ops_per_pass in
  let run_pass k =
    let wrap = if k = 0 then first else fun f -> f () in
    if k = 0 then before_first ();
    let spent = ref 0.0 in
    let pass =
      Array.init n (fun i ->
          let t = now () in
          let o = wrap (fun () -> instance.Workload.run_op ~obs i) in
          spent := !spent +. (now () -. t);
          if w.Workload.cheap_setup then setups := fst (time setup) :: !setups;
          o)
    in
    if k = 0 then after_first ();
    let d = digest pass in
    ((if k = 0 then pass else Array.map (fun o -> { o with exact = "" }) pass), d, !spent)
  in
  let results = List.init passes run_pass in
  {
    setups = !setups;
    instance;
    passes = List.map (fun (p, _, _) -> p) results;
    digests = List.map (fun (_, d, _) -> d) results;
    pass_walls = List.map (fun (_, _, s) -> s) results;
  }

(* Passes per replica: the run's seconds at the workload's nominal pass
   time, and at least [min_ops] over all replicas. Sizing the work, not
   the time, keeps a run's mix independent of how fast the host ran. *)
let passes_for (w : Workload.t) ~seconds ~replicas ~min_ops =
  let ops_per_pass = w.Workload.ops_per_pass in
  let by_time = int_of_float (Float.ceil (seconds /. float_of_int replicas /. w.Workload.pass_s)) in
  let by_ops = (min_ops + (ops_per_pass * replicas) - 1) / (ops_per_pass * replicas) in
  max 1 (max by_time by_ops)

let wall r = List.fold_left ( +. ) 0.0 r.pass_walls

(* Every replica's pass [k] must equal the first replica's pass [k]. *)
let replicas_agree = function
  | [] -> true
  | first :: rest -> List.for_all (fun r -> r.digests = first.digests) rest

(* The cross-run ledger: the first run of this build records the exact
   outputs under [key]; every later run with the same key must match. *)
let ledger_check ~out ~key text =
  let dir = Filename.concat out "ledger" in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (Printf.sprintf "%s.%s" build key) in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let recorded = really_input_string ic (in_channel_length ic) in
    close_in ic;
    recorded = text
  end
  else begin
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    true
  end

(* The gate text of a run: its first pass's exact outputs, sorted so a
   workload whose ops do not depend on the seed is keyed by name alone. *)
let gate_key (w : Workload.t) ~seed =
  if w.Workload.seed_keyed then Printf.sprintf "%s.seed%d" w.Workload.name seed
  else w.Workload.name

let gate_text (r : replica) =
  match r.passes with
  | [] -> ""
  | p :: _ ->
      let lines = List.sort compare (Array.to_list (Array.map (fun o -> o.exact) p)) in
      String.concat "\n" lines

let outcomes rs = List.concat_map (fun r -> List.concat_map Array.to_list r.passes) rs

let latencies ?cls os =
  Array.of_list
    (List.filter_map
       (fun o -> if cls = None || cls = Some o.cls then Some o.latency else None)
       os)

(* Per-class count, median latency and mean normalized cost, to stderr. *)
let print_classes os =
  let classes = List.sort_uniq compare (List.map (fun o -> o.cls) os) in
  List.iter
    (fun cls ->
      let mine = List.filter (fun o -> o.cls = cls) os in
      let norms = List.filter Float.is_finite (List.map (fun o -> o.norm_cost) mine) in
      Printf.eprintf "  %-28s %6d ops  p50 %10.3f ms  norm_cost %s\n" cls (List.length mine)
        (median (latencies ~cls os) *. 1e3)
        (if norms = [] then "-" else Printf.sprintf "%.6f" (mean (Array.of_list norms))))
    classes

let finite_mean f os =
  let xs = List.filter Float.is_finite (List.map f os) in
  if xs = [] then nan else mean (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then
      failwith (Printf.sprintf "metric %s is %g" name value);
    (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit) ])
  in
  let fields =
    [ ("correct", J.Bool correct); ("attempted", J.Num (float_of_int attempted));
      ("failed", J.Num (float_of_int failed)); ("metrics", J.Obj (List.map metric metrics)) ]
  in
  print_endline (J.to_string ~indent:false (J.Obj fields))

(* Three of each probe: (arithmetic ms, memory ms) lists; the memory
   probe only with [mem]. *)
let probes ~mem =
  let p = List.init 3 (fun _ -> probe_ms ()) in
  (p, if mem then List.init 3 (fun _ -> mem_probe_ms ()) else [])

let probe_line (p0, m0) (p1, m1) =
  let ms l = String.concat " " (List.map (Printf.sprintf "%.2f") l) in
  Printf.eprintf "host probe: %s ms%s\n%!" (ms (p0 @ p1))
    (if m0 @ m1 = [] then "" else "; memory probe: " ^ ms (m0 @ m1) ^ " ms")

(* ------------------------------------------------------------------ *)
(* End-to-end run.                                                      *)

let end_to_end a =
  let w = a.workload in
  let r = w.Workload.replicas in
  let passes = passes_for w ~seconds:a.seconds ~replicas:r ~min_ops:w.Workload.min_ops in
  let rs =
    List.init r (fun _ ->
        run_replica w ~seed:a.seed ~view:Fun.id ~obs:Trace.null ~passes ())
  in
  let os = outcomes rs in
  let n = List.length os in
  let ok = List.length (List.filter (fun o -> o.ok) os) in
  let lat = latencies os in
  let wall = List.fold_left (fun acc r -> acc +. wall r) 0.0 rs in
  let p50 =
    match w.Workload.center with
    | `Median -> quantile lat 0.5
    | `Geometric_mean -> geometric_mean lat
  in
  (* The p99 is reported only with ten samples beyond it; elsewhere the
     slot repeats the [p50_ms] statistic (see README.md). *)
  let p99 = if tail_measurable ~n 0.99 then quantile lat 0.99 else p50 in
  let spot_ratio = finite_mean (fun o -> o.spot_ratio) os in
  let agree = replicas_agree rs in
  let ledger = ledger_check ~out:a.out ~key:(gate_key w ~seed:a.seed) (gate_text (List.hd rs)) in
  Printf.eprintf "%s: %d ops in %d replicas, %.2f s timed; replicas agree %b, ledger %b\n%!"
    w.Workload.name n r wall agree ledger;
  print_classes os;
  let metrics =
    [ ("ops_per_s", float_of_int n /. wall, "1/s");
      ("p50_ms", p50 *. 1e3, "ms");
      ("p99_ms", p99 *. 1e3, "ms");
      ("success_rate", float_of_int ok /. float_of_int n, "share");
      ("norm_cost", finite_mean (fun o -> o.norm_cost) os, "ratio");
      (* Plans with no spot reservation cost exactly their on-demand price. *)
      ("spot_cost_ratio", (if Float.is_finite spot_ratio then spot_ratio else 1.0), "ratio");
      ("peak_rss_mb", peak_rss_mb (), "MiB");
      ("setup_s", median (Array.of_list (List.concat_map (fun r -> r.setups) rs)), "s") ]
  in
  (ok = n && agree && ledger, n, n - ok, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run.                                                          *)

let per_op total ops = if ops = 0 then 0.0 else total /. float_of_int ops

let counter snapshot name =
  match List.assoc_opt name snapshot with Some (M.Counter_v n) -> float_of_int n | _ -> 0.0

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let traced a =
  let w = a.workload in
  let probe_start = probes ~mem:true in
  let view_registry = M.create ~enabled:true () in
  let counted = Counted.create view_registry in
  let buf = Buffer.create (1 lsl 20) in
  let sink = Trace.make ~clock:now (Stochobs.Writer.to_buffer buf) in
  M.set_enabled M.default true;
  let self_check =
    List.for_all Counted.self_check
      (Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 :: List.map snd Distributions.Table1.all)
  in
  (* Counted replica, untraced: every law behind the counting view, and
     the first pass counted op by op. It runs first, on a fresh heap, so
     its allocation and collection counts repeat exactly for a seed. *)
  let gc_minor = ref 0.0 and gc_major = ref 0 in
  let first f =
    let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
    let o = f () in
    gc_minor := !gc_minor +. (Gc.minor_words () -. m0);
    gc_major := !gc_major + ((Gc.quick_stat ()).Gc.major_collections - c0);
    o
  in
  (* The registries are read around the first pass only, after the
     set-up: [serve]'s warm-up passes are not the measured pass's work. *)
  let snap () = (M.snapshot view_registry, M.snapshot M.default) in
  let before = ref None and after = ref None in
  let before_first () = before := Some (snap ()) in
  let after_first () = after := Some (snap ()) in
  (* Half the run each; the traced run needs no tail samples. *)
  let passes = passes_for w ~seconds:a.seconds ~replicas:2 ~min_ops:0 in
  let c =
    run_replica w ~seed:a.seed ~view:(Counted.wrap counted) ~obs:Trace.null ~passes ~first
      ~before_first ~after_first ()
  in
  let before_view, before_default = Option.get !before in
  let after_view, after_default = Option.get !after in
  let dview = M.diff ~before:before_view ~after:after_view in
  let ddefault = M.diff ~before:before_default ~after:after_default in
  (* Traced replica over as many passes: the same work with every span
     in the buffer sink, for the trace and its overhead. *)
  let t = run_replica w ~seed:a.seed ~view:(Counted.wrap counted) ~obs:sink ~passes () in
  let agree = replicas_agree [ c; t ] in
  let ledger = ledger_check ~out:a.out ~key:(gate_key w ~seed:a.seed) (gate_text c) in
  let pass0 = List.hd c.passes in
  let ops0 = Array.length pass0 in
  let cos = outcomes [ c ] in
  let class_median cls scale = median (latencies ~cls cos) *. scale in
  let has cls = List.exists (fun o -> o.cls = cls) cos in
  let plans0 = Array.fold_left (fun acc o -> acc + o.plans) 0 pass0 in
  let hits = Array.fold_left (fun acc o -> if o.cls = "hit" then acc + 1 else acc) 0 pass0 in
  let misses = Array.fold_left (fun acc o -> if o.cls = "miss" then acc + 1 else acc) 0 pass0 in
  let layers = Layers.measure ~sink (t.instance.Workload.inputs ~obs:sink) in
  let service =
    if has "hit" then
      [ ("service.hit_us", class_median "hit" 1e6, "us");
        ("service.miss_ms", class_median "miss" 1e3, "ms");
        ("service.fit_ms", class_median "fit" 1e3, "ms") ]
    else Layers.reference_service ~sink
  in
  let experiments =
    if has "table2" then
      List.map
        (fun name -> (Printf.sprintf "experiments.%s_ms" name, class_median name 1e3, "ms"))
        (Array.to_list W_paper.artefacts)
    else Layers.reference_experiments ~sink
  in
  (* The trace is written out, then read back the way stochtrace reads
     it: a skipped line fails the run. *)
  (try Sys.mkdir a.out 0o755 with Sys_error _ -> ());
  let trace_path =
    Filename.concat a.out (Printf.sprintf "trace-%s-seed%d.jsonl" w.Workload.name a.seed)
  in
  write_file trace_path (Buffer.contents buf);
  let trace =
    match TR.of_file trace_path with Ok tr -> tr | Error _ -> TR.of_string ""
  in
  let readable = trace.TR.skipped = 0 && TR.span_count trace > 0 in
  let tier_ms =
    match SS.find (SS.compute trace) "robust.solver.tier" with
    | Some r -> r.SS.self /. float_of_int r.SS.count *. 1e3
    | None -> nan
  in
  (* Base share: the cascade's part of each spot op. *)
  let base_share =
    let shares =
      List.filter_map
        (fun (s : TR.span) ->
          let child name = List.find_opt (fun (c : TR.span) -> c.TR.name = name) s.TR.children in
          match (s.TR.name, child "robust.solver.solve", child "robust.solver.spot") with
          | "perfbench.op", Some base, Some _ -> Some (TR.duration base /. TR.duration s)
          | _ -> None)
        (TR.spans trace)
    in
    if shares = [] then 1.0 else mean (Array.of_list shares)
  in
  let exact =
    [ ("dist.pdf_calls", per_op (counter dview "dist.pdf_calls") ops0, "count");
      ("dist.cdf_calls", per_op (counter dview "dist.cdf_calls") ops0, "count");
      ("dist.quantile_calls", per_op (counter dview "dist.quantile_calls") ops0, "count");
      ("dist.sample_calls", per_op (counter dview "dist.sample_calls") ops0, "count");
      ("spot.plans_scored", per_op (float_of_int plans0) ops0, "count");
      ( "spot.minor_mwords_per_plan",
        (if plans0 = 0 then 0.0 else !gc_minor /. 1e6 /. float_of_int plans0),
        "Mwords" );
      ( "robust.solver.evaluations",
        per_op (counter ddefault "robust.solver.evaluations") ops0,
        "count" );
      ("robust.solver.degraded", counter ddefault "robust.solver.degraded", "count");
      ( "service.cache.hit_rate",
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)),
        "share" );
      ("service.cache.evictions", counter ddefault "service.cache.evictions", "count");
      ("gc.minor_mwords", per_op !gc_minor ops0 /. 1e6, "Mwords");
      ("gc.major_collections", per_op (float_of_int !gc_major) ops0, "count") ]
  in
  let exact_text =
    List.filter
      (fun (n, _, _) -> w.Workload.clock_free_alloc || not (String.starts_with ~prefix:"gc." n))
      exact
    |> List.map (fun (n, v, _) -> Printf.sprintf "%s %s" n (bits v))
    |> String.concat "\n"
  in
  let ledger_layers =
    ledger_check ~out:a.out
      ~key:(Printf.sprintf "%s.seed%d.layers" w.Workload.name a.seed)
      exact_text
  in
  let probe_end = probes ~mem:true in
  probe_line probe_start probe_end;
  let overhead = (wall t /. wall c) -. 1.0 in
  let metrics =
    exact @ layers @ service @ experiments
    @ [ ("robust.solver.tier_ms", tier_ms, "ms");
        ("robust.solver.spot.base_share", base_share, "share");
        ("obs.trace_overhead", overhead, "share");
        ("host.probe_ms", median (Array.of_list (fst probe_start @ fst probe_end)), "ms");
        ("host.mem_probe_ms", median (Array.of_list (snd probe_start @ snd probe_end)), "ms") ]
  in
  let os = outcomes [ c; t ] in
  let n = List.length os in
  let ok = List.length (List.filter (fun o -> o.ok) os) in
  Printf.eprintf
    "%s traced: %d passes each; self-check %b, replicas agree %b, ledger %b/%b, trace %s \
     readable %b\n%!"
    w.Workload.name passes self_check agree ledger ledger_layers trace_path readable;
  (ok = n && self_check && agree && ledger && ledger_layers && readable, n, n - ok, metrics)

let () =
  let a = parse_args () in
  if not a.trace && a.workload.Workload.name = "serve" then M.set_enabled M.default true;
  let probe_start = if a.trace then ([], []) else probes ~mem:false in
  let correct, attempted, failed, metrics = if a.trace then traced a else end_to_end a in
  if not a.trace then probe_line probe_start (probes ~mem:false);
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
