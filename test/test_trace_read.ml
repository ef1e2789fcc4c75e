(* Tests for the trace analytics layer (Stochobs_analysis): fake-clock
   golden round-trips through Trace_read, span statistics and diffing,
   critical-path and flamegraph decomposition, skip-and-count
   resilience under the chaos harness's file damage, and the
   end-to-end determinism contract: two same-seed fake-clock runs of
   the solver (and the serve daemon) produce traces whose diff is
   empty. *)

module Clock = Stochobs.Clock
module Trace = Stochobs.Trace
module Writer = Stochobs.Writer
module Tr = Stochobs_analysis.Trace_read
module Stats = Stochobs_analysis.Span_stats
module Cp = Stochobs_analysis.Critical_path
module Fg = Stochobs_analysis.Flamegraph

let check_float = Alcotest.(check (float 1e-12))

(* Emit a small known tree under the fake clock and return the JSONL
   text: outer(outer-a(leaf), outer-b) plus one event and one orphan
   root. Every reading of the fake clock steps 1 ms. *)
let emit_scenario () =
  let buf = Buffer.create 1024 in
  let sink = Trace.make ~clock:(Clock.fake ()) (Writer.to_buffer buf) in
  Trace.with_span sink ~attrs:[ ("k", Trace.Int 3) ] "outer" (fun () ->
      Trace.with_span sink "outer-a" (fun () ->
          Trace.with_span sink "leaf" (fun () -> ());
          Trace.annotate sink [ ("note", Trace.Str "deep") ]);
      Trace.instant sink "tick";
      Trace.with_span sink "outer-b" (fun () -> ()));
  Trace.with_span sink "second-root" (fun () -> ());
  Buffer.contents buf

(* ----------------------------- reading ---------------------------- *)

let test_roundtrip () =
  let t = Tr.of_string (emit_scenario ()) in
  Alcotest.(check int) "no damage" 0 t.Tr.skipped;
  Alcotest.(check int) "spans" 5 (Tr.span_count t);
  Alcotest.(check int) "events" 1 (List.length t.Tr.events);
  Alcotest.(check (list string)) "roots in id order"
    [ "outer"; "second-root" ]
    (List.map (fun (s : Tr.span) -> s.Tr.name) t.Tr.roots);
  let outer = List.hd t.Tr.roots in
  Alcotest.(check (list string)) "children in start order"
    [ "outer-a"; "outer-b" ]
    (List.map (fun (s : Tr.span) -> s.Tr.name) outer.Tr.children);
  (* Spans nest: each child's window inside its parent's. *)
  List.iter
    (fun (c : Tr.span) ->
      Alcotest.(check bool) "child window inside parent" true
        (c.Tr.start >= outer.Tr.start && c.Tr.stop <= outer.Tr.stop))
    outer.Tr.children;
  let ev = List.hd t.Tr.events in
  Alcotest.(check string) "event name" "tick" ev.Tr.ev_name;
  Alcotest.(check int) "event parented to outer" outer.Tr.id ev.Tr.ev_parent;
  (* Self time of the outer span is its duration minus the two
     children's; everything is a whole number of fake-clock steps. *)
  check_float "outer self"
    (Tr.duration outer
    -. List.fold_left
         (fun acc c -> acc +. Tr.duration c)
         0.0 outer.Tr.children)
    (Tr.self_time outer)

let test_of_string_identical_to_emitted () =
  (* The same scenario emitted twice is byte-identical (the fake-clock
     golden contract), so the parses agree too. *)
  let a = emit_scenario () and b = emit_scenario () in
  Alcotest.(check string) "emission deterministic" a b;
  let ta = Tr.of_string a and tb = Tr.of_string b in
  Alcotest.(check int) "same span count" (Tr.span_count ta) (Tr.span_count tb)

let test_orphan_promotion () =
  (* Drop the LAST line (the root span closes last): its children must
     be promoted to roots, nothing lost but the root itself. *)
  let lines = String.split_on_char '\n' (String.trim (emit_scenario ())) in
  let torn =
    String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 1) lines)
  in
  let t = Tr.of_string torn in
  Alcotest.(check int) "nothing skipped: the root is absent, not damaged" 0
    t.Tr.skipped;
  Alcotest.(check bool) "all remaining spans reachable" true
    (Tr.span_count t = List.length lines - 1 - 1)
(* minus the dropped line and the event line *)

let test_cycle_counted_as_skipped () =
  let cyc =
    String.concat "\n"
      [
        {|{"type":"span","name":"a","id":1,"parent":2,"start":0,"end":1}|};
        {|{"type":"span","name":"b","id":2,"parent":1,"start":0,"end":1}|};
        {|{"type":"span","name":"ok","id":3,"start":0,"end":1}|};
      ]
  in
  let t = Tr.of_string cyc in
  Alcotest.(check int) "cycle members skipped" 2 t.Tr.skipped;
  Alcotest.(check int) "the well-formed span survives" 1 (Tr.span_count t)

let test_malformed_lines_skipped () =
  let junk =
    String.concat "\n"
      [
        "not json at all";
        {|{"type":"span","name":"negative","id":4,"start":3,"end":1}|};
        {|{"type":"span","name":"ok","id":1,"start":0,"end":1}|};
        {|{"type":"span","name":"dup","id":1,"start":0,"end":1}|};
        {|{"type":"event","at":0.5}|};
        "";
      ]
  in
  let t = Tr.of_string junk in
  Alcotest.(check int) "lines counted (blank excluded)" 5 t.Tr.lines;
  Alcotest.(check int) "damage counted" 4 t.Tr.skipped;
  Alcotest.(check int) "survivor" 1 (Tr.span_count t)

(* --------------------------- span stats ---------------------------- *)

let test_span_stats () =
  let rows = Stats.compute (Tr.of_string (emit_scenario ())) in
  Alcotest.(check int) "five distinct names" 5 (List.length rows);
  (match Stats.find rows "outer" with
  | None -> Alcotest.fail "outer row missing"
  | Some r ->
      Alcotest.(check int) "count" 1 r.Stats.count;
      Alcotest.(check bool) "total covers children" true
        (r.Stats.total >= r.Stats.self);
      check_float "p50 = p99 for a single observation" r.Stats.p50 r.Stats.p99);
  (* Sorted by descending total: the root dominates. *)
  Alcotest.(check string) "heaviest first" "outer"
    (List.hd rows).Stats.name

let test_diff_empty_on_identical () =
  let rows () = Stats.compute (Tr.of_string (emit_scenario ())) in
  Alcotest.(check int) "self-diff empty" 0
    (List.length (Stats.diff ~threshold:0.25 ~old_rows:(rows ()) ~new_rows:(rows ())))

let test_diff_flags_slowdown () =
  let old_rows = Stats.compute (Tr.of_string (emit_scenario ())) in
  (* Same structure on a 3x slower clock: every span's total triples. *)
  let buf = Buffer.create 1024 in
  let sink =
    Trace.make ~clock:(Clock.fake ~step:0.003 ()) (Writer.to_buffer buf)
  in
  Trace.with_span sink "outer" (fun () ->
      Trace.with_span sink "outer-a" (fun () ->
          Trace.with_span sink "leaf" (fun () -> ()));
      Trace.with_span sink "outer-b" (fun () -> ()));
  Trace.with_span sink "second-root" (fun () -> ());
  let new_rows = Stats.compute (Tr.of_string (Buffer.contents buf)) in
  let changes = Stats.diff ~threshold:0.25 ~old_rows ~new_rows in
  Alcotest.(check bool) "slowdown flagged as regression" true
    (List.exists (fun c -> c.Stats.regression) changes);
  (* A vanished or appeared name is a change but not a regression. *)
  let appeared =
    Stats.diff ~threshold:0.25 ~old_rows:[] ~new_rows
  in
  Alcotest.(check bool) "appeared names are not regressions" true
    (List.for_all (fun c -> not c.Stats.regression) appeared)

let test_diff_threshold_validation () =
  Alcotest.check_raises "bad threshold"
    (Invalid_argument
       "Span_stats.diff: threshold must be finite and >= 0, got -1")
    (fun () ->
      ignore (Stats.diff ~threshold:(-1.0) ~old_rows:[] ~new_rows:[]))

(* ------------------------- critical path --------------------------- *)

let test_critical_path () =
  let t = Tr.of_string (emit_scenario ()) in
  let chains = Cp.compute t in
  Alcotest.(check int) "one chain per root" 2 (List.length chains);
  let chain = List.hd chains in
  Alcotest.(check (list string)) "descends into the heaviest child"
    [ "outer"; "outer-a"; "leaf" ]
    (List.map (fun s -> s.Cp.span.Tr.name) chain);
  (match chain with
  | root :: _ -> check_float "root fraction" 1.0 root.Cp.fraction
  | [] -> Alcotest.fail "empty chain");
  List.iter
    (fun step ->
      Alcotest.(check bool) "fractions within [0,1]" true
        (step.Cp.fraction >= 0.0 && step.Cp.fraction <= 1.0))
    chain

(* --------------------------- flamegraph ---------------------------- *)

let test_flamegraph () =
  let t = Tr.of_string (emit_scenario ()) in
  let folded = Fg.folded t in
  List.iter
    (fun (stack, self) ->
      Alcotest.(check bool) "positive self time" true (self > 0.0);
      Alcotest.(check bool) "stack frames well-formed" true
        (String.length stack > 0 && not (String.contains stack ' ')))
    folded;
  (* Self times over the folded stacks sum to total root wall time. *)
  let folded_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 folded in
  let root_sum =
    List.fold_left (fun acc r -> acc +. Tr.duration r) 0.0 t.Tr.roots
  in
  check_float "flamegraph conserves wall time" root_sum folded_sum;
  let lines = Fg.to_lines t in
  Alcotest.(check int) "one line per stack" (List.length folded)
    (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail "no value field"
      | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "integer microseconds %S" v)
            true
            (String.length v > 0
            && String.for_all (fun c -> c >= '0' && c <= '9') v))
    lines;
  (* Nested frames keep root-first ;-joined order. *)
  Alcotest.(check bool) "leaf stack present" true
    (List.mem_assoc "outer;outer-a;leaf" folded)

(* ------------------------ chaos resilience ------------------------- *)

(* Damaging a trace file must never make the reader raise, and
   whatever is skipped must be counted. *)
let prop_reader_survives_damage =
  QCheck.Test.make ~count:200 ~name:"Trace_read survives seeded file damage"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let path = Filename.temp_file "stochtrace-test" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out path in
          output_string oc (emit_scenario ());
          close_out oc;
          let chaos = Chaos.create ~seed () in
          let damage = Chaos.tear_file chaos path in
          let t =
            match Tr.of_file path with
            | Ok t -> t
            | Error msg -> QCheck.Test.fail_reportf "of_file failed: %s" msg
            | exception e ->
                QCheck.Test.fail_reportf "reader raised %s"
                  (Printexc.to_string e)
          in
          let intact = Tr.of_string (emit_scenario ()) in
          match damage with
          | Chaos.Untouched ->
              t.Tr.skipped = 0 && Tr.span_count t = Tr.span_count intact
          | Chaos.Truncated _ | Chaos.Bit_flipped _ ->
              (* Whatever was lost is accounted: reconstructed spans
                 plus skipped lines cover every non-blank line that
                 survives in the file, and nothing fabricated. *)
              Tr.span_count t <= Tr.span_count intact
              && t.Tr.skipped >= 0
              && Tr.span_count t + List.length t.Tr.events + t.Tr.skipped
                 <= t.Tr.lines))

(* ------------------- end-to-end solver determinism ------------------ *)

(* The satellite-6 contract: a fake-clock solve is bit-for-bit
   reproducible because the solver's budget guard reads the injected
   clock, not the machine's. Two runs, identical bytes, empty diff. *)
let solver_trace () =
  let buf = Buffer.create 4096 in
  let clock = Clock.fake () in
  let sink = Trace.make ~clock (Writer.to_buffer buf) in
  (match
     Robust.Solver.solve ~obs:sink ~clock ~budget:Robust.Solver.quick_budget
       ~seed:42 Stochastic_core.Cost_model.reservation_only
       Distributions.Lognormal.default
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Robust.Solver.error_to_string e));
  Buffer.contents buf

let test_solver_fake_clock_determinism () =
  let a = solver_trace () and b = solver_trace () in
  Alcotest.(check string) "traces byte-identical" a b;
  let old_rows = Stats.compute (Tr.of_string a) in
  let new_rows = Stats.compute (Tr.of_string b) in
  Alcotest.(check int) "diff empty" 0
    (List.length (Stats.diff ~threshold:0.25 ~old_rows ~new_rows))

(* Same contract for the serve daemon: the shared fake clock drives
   the sink, the request timer and the solver budget guard. *)
let serve_trace () =
  let buf = Buffer.create 4096 in
  let clock = Clock.fake () in
  let sink = Trace.make ~clock (Writer.to_buffer buf) in
  let server =
    Stochserve.Server.create ~obs:sink ~clock
      ~metrics:(Stochobs.Metrics.create ~enabled:true ())
      {
        Stochserve.Server.default_config with
        Stochserve.Server.budget = Robust.Solver.quick_budget;
      }
  in
  List.iter
    (fun line -> ignore (Stochserve.Server.handle_line server line))
    [
      {|{"kind":"solve","id":1,"dist":{"family":"lognormal","mu":0.5,"sigma":0.8},"count":5}|};
      {|{"kind":"solve","id":2,"dist":{"family":"lognormal","mu":0.5,"sigma":0.8},"count":5}|};
      {|{"kind":"stats","id":3}|};
    ];
  Buffer.contents buf

let test_serve_fake_clock_determinism () =
  let a = serve_trace () and b = serve_trace () in
  Alcotest.(check string) "serve traces byte-identical" a b;
  let rows = Stats.compute (Tr.of_string a) in
  Alcotest.(check bool) "request spans present" true
    (Option.is_some (Stats.find rows "service.request"))

let () =
  Alcotest.run "trace_read"
    [
      ( "reader",
        [
          Alcotest.test_case "golden roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "deterministic emission" `Quick
            test_of_string_identical_to_emitted;
          Alcotest.test_case "orphan promotion" `Quick test_orphan_promotion;
          Alcotest.test_case "cycles skipped" `Quick
            test_cycle_counted_as_skipped;
          Alcotest.test_case "malformed lines skipped" `Quick
            test_malformed_lines_skipped;
        ] );
      ( "stats",
        [
          Alcotest.test_case "aggregation" `Quick test_span_stats;
          Alcotest.test_case "self-diff empty" `Quick
            test_diff_empty_on_identical;
          Alcotest.test_case "slowdown flagged" `Quick test_diff_flags_slowdown;
          Alcotest.test_case "threshold validated" `Quick
            test_diff_threshold_validation;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "critical path" `Quick test_critical_path;
          Alcotest.test_case "flamegraph" `Quick test_flamegraph;
        ] );
      ( "resilience",
        [ QCheck_alcotest.to_alcotest prop_reader_survives_damage ] );
      ( "determinism",
        [
          Alcotest.test_case "solver fake-clock" `Quick
            test_solver_fake_clock_determinism;
          Alcotest.test_case "serve fake-clock" `Quick
            test_serve_fake_clock_determinism;
        ] );
    ]
