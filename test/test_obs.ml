(* Tests for the observability layer: bit-for-bit golden JSONL traces
   under the fake clock, metrics registry semantics (bucket edges,
   saturation, snapshot/diff algebra), log level filtering, and the
   solver cascade's tier-span sequence. *)

module Clock = Stochobs.Clock
module Trace = Stochobs.Trace
module Writer = Stochobs.Writer
module M = Stochobs.Metrics
module Log = Stochobs.Log
module J = Stochobs.Json

let check_float = Alcotest.(check (float 1e-12))

(* [ignore] on a [Clock.t] trips the partial-application warning, the
   clock being a bare [unit -> float]. *)
let discard_clock (_ : Clock.t) = ()

(* ------------------------------ clock ----------------------------- *)

let test_fake_clock () =
  let c = Clock.fake () in
  check_float "first reading" 0.0 (c ());
  check_float "second reading" 0.001 (c ());
  check_float "third reading" 0.002 (c ());
  let c2 = Clock.fake ~start:10.0 ~step:2.0 () in
  check_float "custom start" 10.0 (c2 ());
  check_float "custom step" 12.0 (c2 ());
  Alcotest.check_raises "negative step rejected"
    (Invalid_argument "Clock.fake: start/step must be finite, step nonnegative")
    (fun () -> discard_clock (Clock.fake ~step:(-1.0) ()));
  Alcotest.check_raises "non-finite start rejected"
    (Invalid_argument "Clock.fake: start/step must be finite, step nonnegative")
    (fun () -> discard_clock (Clock.fake ~start:nan ()))

(* ------------------------------ trace ----------------------------- *)

let test_null_sink () =
  let ran = ref false in
  let v =
    Trace.with_span Trace.null "anything" (fun () ->
        ran := true;
        Trace.annotate Trace.null [ ("k", Trace.Int 1) ];
        Trace.instant Trace.null "tick";
        41 + 1)
  in
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "value returned" 42 v;
  Alcotest.(check int) "no spans" 0 (Trace.spans_written Trace.null)

(* The scenario used by the golden and determinism tests: a nested
   span, a point event, and attributes supplied both at open time and
   via [annotate]. *)
let golden_scenario sink =
  Trace.with_span sink ~attrs:[ ("k", Trace.Int 3) ] "outer" (fun () ->
      Trace.with_span sink "inner" (fun () ->
          Trace.annotate sink [ ("note", Trace.Str "deep") ]);
      Trace.instant sink
        ~attrs:[ ("x", Trace.Num 1.5); ("ok", Trace.Bool true) ]
        "tick";
      Trace.annotate sink [ ("phase", Trace.Str "x") ])

let run_golden () =
  let buf = Buffer.create 256 in
  let sink = Trace.make ~clock:(Clock.fake ~step:1.0 ()) (Writer.to_buffer buf) in
  golden_scenario sink;
  (sink, Buffer.contents buf)

let test_golden_jsonl () =
  (* Clock readings, in order: outer start = 0, inner start = 1, inner
     end = 2, instant = 3, outer end = 4 (step 1.0). Children close —
     and are written — before their parents; attribute order is open
     attrs first, then annotations, in call order. *)
  let _, got = run_golden () in
  let expected =
    {|{"type": "span","name": "inner","id": 2,"parent": 1,"start": 1,"end": 2,"attrs": {"note": "deep"}}
{"type": "event","name": "tick","parent": 1,"at": 3,"attrs": {"x": 1.5,"ok": true}}
{"type": "span","name": "outer","id": 1,"start": 0,"end": 4,"attrs": {"k": 3,"phase": "x"}}
|}
  in
  Alcotest.(check string) "bit-for-bit golden trace" expected got

let test_trace_counts () =
  let sink, _ = run_golden () in
  Alcotest.(check int) "two spans" 2 (Trace.spans_written sink)

let test_trace_deterministic () =
  (* Same structure + same fake clock = byte-identical output, also
     under the default (accumulating, non-representable) step. *)
  let run () =
    let buf = Buffer.create 256 in
    let sink = Trace.make ~clock:(Clock.fake ()) (Writer.to_buffer buf) in
    golden_scenario sink;
    Buffer.contents buf
  in
  Alcotest.(check string) "two runs identical" (run ()) (run ())

let test_error_span () =
  let buf = Buffer.create 64 in
  let sink = Trace.make ~clock:(Clock.fake ~step:1.0 ()) (Writer.to_buffer buf) in
  Alcotest.check_raises "exception re-raised" (Failure "kaput") (fun () ->
      Trace.with_span sink "boom" (fun () -> failwith "kaput"));
  let expected =
    {|{"type": "span","name": "boom","id": 1,"start": 0,"end": 1,"error": "Failure(\"kaput\")"}|}
    ^ "\n"
  in
  Alcotest.(check string) "error recorded, span still closed" expected
    (Buffer.contents buf);
  Alcotest.(check int) "span counted" 1 (Trace.spans_written sink)

let test_trace_lines_parse () =
  let _, got = run_golden () in
  let lines =
    String.split_on_char '\n' got |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "three records" 3 (List.length lines);
  List.iter
    (fun l ->
      match J.of_string l with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.failf "trace line is not an object: %s" l
      | Error e -> Alcotest.failf "unparseable trace line %S: %s" l e)
    lines

(* ----------------------------- metrics ---------------------------- *)

let test_counter_saturation () =
  let t = M.create ~enabled:true () in
  let c = M.counter t "c" in
  M.incr c;
  M.incr c;
  M.add c 5;
  Alcotest.(check int) "accumulates" 7 (M.count c);
  M.add c (-3);
  Alcotest.(check int) "negative increments ignored" 7 (M.count c);
  M.add c max_int;
  Alcotest.(check int) "saturates instead of wrapping" max_int (M.count c);
  M.incr c;
  Alcotest.(check int) "stays pinned" max_int (M.count c)

let test_disabled_registry () =
  let t = M.create () in
  let c = M.counter t "c" in
  let g = M.gauge t "g" in
  let h = M.histogram t "h" ~buckets:[| 1.0 |] in
  M.incr c;
  M.set g 3.0;
  M.observe h 0.5;
  Alcotest.(check int) "counter unmoved" 0 (M.count c);
  Alcotest.(check (list string)) "snapshot empty of activity"
    [ "c"; "h" ]
    (List.map fst (M.snapshot t));
  M.set_enabled t true;
  M.incr c;
  Alcotest.(check int) "updates stick once enabled" 1 (M.count c)

let test_gauge () =
  let t = M.create ~enabled:true () in
  let reading name =
    match List.assoc name (M.snapshot t) with
    | M.Gauge_v { last; max } -> (last, max)
    | _ -> Alcotest.failf "%s is not a gauge" name
  in
  let g = M.gauge t "g" in
  M.set g 2.0;
  check_float "last" 2.0 (fst (reading "g"));
  check_float "max" 2.0 (snd (reading "g"));
  M.set g 1.0;
  check_float "last follows" 1.0 (fst (reading "g"));
  check_float "max sticks" 2.0 (snd (reading "g"));
  (* First reading seeds the maximum even when negative. *)
  let n = M.gauge t "n" in
  M.set n (-5.0);
  check_float "negative first reading is the max" (-5.0) (snd (reading "n"))

let test_histogram_edges () =
  let t = M.create ~enabled:true () in
  let h = M.histogram t "h" ~buckets:[| 1.0; 2.0 |] in
  M.observe h 1.0;
  (* boundary: v <= upper is inclusive *)
  M.observe h 1.5;
  M.observe h 2.0;
  M.observe h 2.5;
  (* above the last bound -> overflow bucket *)
  M.observe h 1.0;
  match M.snapshot t with
  | [ ("h", M.Histogram_v hv) ] ->
      Alcotest.(check (array (float 0.0))) "bounds copied" [| 1.0; 2.0 |] hv.upper;
      Alcotest.(check (array int)) "inclusive upper edges" [| 2; 2; 1 |] hv.counts;
      Alcotest.(check int) "total" 5 hv.total;
      check_float "kahan sum" 8.0 hv.sum
  | s -> Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length s)

let test_registration () =
  let t = M.create ~enabled:true () in
  let c1 = M.counter t "dup" in
  let c2 = M.counter t "dup" in
  M.incr c1;
  Alcotest.(check int) "idempotent registration shares state" 1 (M.count c2);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: dup is registered with another kind")
    (fun () -> ignore (M.gauge t "dup"));
  Alcotest.check_raises "empty name" (Invalid_argument "Metrics: empty instrument name")
    (fun () -> ignore (M.counter t ""));
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: needs at least one bucket bound")
    (fun () -> ignore (M.histogram t "h" ~buckets:[||]));
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: bucket bounds must strictly increase")
    (fun () -> ignore (M.histogram t "h" ~buckets:[| 2.0; 1.0 |]));
  (* Re-registration with different bounds: the original bounds win. *)
  let h1 = M.histogram t "h" ~buckets:[| 1.0 |] in
  let h2 = M.histogram t "h" ~buckets:[| 5.0; 10.0 |] in
  M.observe h1 0.5;
  (match M.snapshot t |> List.assoc "h" with
  | M.Histogram_v hv ->
      Alcotest.(check (array (float 0.0))) "original bounds kept" [| 1.0 |] hv.upper
  | _ -> Alcotest.fail "histogram expected");
  ignore h2

let test_snapshot_diff () =
  let t = M.create ~enabled:true () in
  let c = M.counter t "b.count" in
  let g = M.gauge t "a.gauge" in
  let _unseen = M.gauge t "z.unseen" in
  M.add c 3;
  M.set g 1.5;
  let before = M.snapshot t in
  (* Sorted by name; the never-set gauge is omitted entirely. *)
  Alcotest.(check (list string)) "sorted, unseen gauge omitted"
    [ "a.gauge"; "b.count" ]
    (List.map fst before);
  M.add c 4;
  M.set g 4.0;
  let after = M.snapshot t in
  let d = M.diff ~before ~after in
  (match List.assoc "b.count" d with
  | M.Counter_v n -> Alcotest.(check int) "counter delta" 4 n
  | _ -> Alcotest.fail "counter expected");
  (match List.assoc "a.gauge" d with
  | M.Gauge_v { last; max } ->
      check_float "gauge keeps the after reading" 4.0 last;
      check_float "gauge max" 4.0 max
  | _ -> Alcotest.fail "gauge expected")

let test_diff_clamps_and_passes_through () =
  (* Snapshots are plain data, so the clamping contract can be checked
     directly: a counter that (impossibly) went backwards clamps at
     zero rather than going negative, and instruments absent from
     [before] pass through unchanged. *)
  let d =
    M.diff
      ~before:[ ("c", M.Counter_v 5) ]
      ~after:[ ("c", M.Counter_v 3); ("fresh", M.Counter_v 2) ]
  in
  (match List.assoc "c" d with
  | M.Counter_v n -> Alcotest.(check int) "clamped at zero" 0 n
  | _ -> Alcotest.fail "counter expected");
  match List.assoc "fresh" d with
  | M.Counter_v n -> Alcotest.(check int) "new instrument passes through" 2 n
  | _ -> Alcotest.fail "counter expected"

let test_zero_filter () =
  Alcotest.(check bool) "zero counter" true (M.zero (M.Counter_v 0));
  Alcotest.(check bool) "live counter" false (M.zero (M.Counter_v 1));
  Alcotest.(check bool) "gauges always report" false
    (M.zero (M.Gauge_v { last = 0.0; max = 0.0 }));
  Alcotest.(check bool) "empty histogram" true
    (M.zero (M.Histogram_v { upper = [| 1.0 |]; counts = [| 0; 0 |]; total = 0; sum = 0.0 }))

let test_metrics_json_roundtrip () =
  let t = M.create ~enabled:true () in
  M.add (M.counter t "c") 2;
  M.set (M.gauge t "g") 1.5;
  M.observe (M.histogram t "h" ~buckets:[| 1.0 |]) 0.5;
  let rendered = J.to_string (M.to_json (M.snapshot t)) in
  match J.of_string rendered with
  | Error e -> Alcotest.failf "metrics JSON unparseable: %s" e
  | Ok j ->
      Alcotest.(check bool) "counter present" true (J.member "c" j <> None);
      Alcotest.(check (option int)) "counter value" (Some 2)
        (Option.bind (J.member "c" j) J.to_int)

(* ------------------------------ merge ----------------------------- *)

(* ---------------------------- prometheus --------------------------- *)

let test_prometheus_exposition () =
  let t = M.create ~enabled:true () in
  M.add (M.counter t "service.cache.hits") 3;
  M.set (M.gauge t "service.request.p99_window") 0.25;
  let h = M.histogram t "service.request.seconds" ~buckets:[| 0.1; 1.0 |] in
  M.observe h 0.05;
  M.observe h 0.5;
  M.observe h 5.0;
  let text = M.to_prometheus (M.snapshot t) in
  let has needle =
    Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
      (let nl = String.length needle and tl = String.length text in
       let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
       at 0)
  in
  (* Names sanitized (dots to underscores), counters suffixed _total,
     histograms cumulative and +Inf-terminated — the 0.0.4 text rules. *)
  has "# TYPE service_cache_hits_total counter\n";
  has "service_cache_hits_total 3\n";
  has "# TYPE service_request_p99_window gauge\n";
  has "service_request_p99_window 0.25\n";
  has "# TYPE service_request_seconds histogram\n";
  has "service_request_seconds_bucket{le=\"+Inf\"} 3\n";
  has "service_request_seconds_count 3\n";
  (* Buckets are cumulative: the le="1" bucket counts both smaller
     observations. *)
  has "service_request_seconds_bucket{le=\"1\"} 2\n";
  (* Every non-comment line is name[{labels}] value. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | None -> Alcotest.failf "malformed exposition line %S" line
           | Some i ->
               let name = String.sub line 0 i in
               Alcotest.(check bool)
                 (Printf.sprintf "metric name well-formed in %S" line)
                 true
                 (name <> ""
                 && (match name.[0] with
                    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
                    | _ -> false)))

(* ------------------------------- log ------------------------------ *)

let test_log_levels () =
  Log.infof Log.null "dropped %d" 1;
  let buf = Buffer.create 64 in
  let log = Log.make ~min_level:Log.Info (Writer.to_buffer buf) in
  Log.debugf log "invisible %s" "noise";
  Log.infof log "n=%d" 42;
  Alcotest.(check string) "level-prefixed lines" "[info] n=42\n"
    (Buffer.contents buf);
  let buf = Buffer.create 64 in
  let log = Log.make ~min_level:Log.Debug (Writer.to_buffer buf) in
  Log.debugf log "d";
  Alcotest.(check string) "debug passes at its level" "[debug] d\n"
    (Buffer.contents buf)

(* --------------------------- solver spans ------------------------- *)

let cost = Stochastic_core.Cost_model.reservation_only
let quick = Robust.Solver.quick_budget

let solve_with_trace d =
  let buf = Buffer.create 4096 in
  let obs = Trace.make ~clock:(Clock.fake ()) (Writer.to_buffer buf) in
  match Robust.Solver.solve ~obs ~budget:quick cost d with
  | Error e -> Alcotest.failf "solve failed: %s" (Robust.Solver.error_to_string e)
  | Ok sol -> (sol, Buffer.contents buf)

let parse_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match J.of_string l with
         | Ok j -> j
         | Error e -> Alcotest.failf "unparseable trace line %S: %s" l e)

let str_field name j =
  match Option.bind (J.member name j) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" name

let attr name j =
  Option.bind (J.member "attrs" j) (fun a -> J.member name a)

let attr_str name j =
  match Option.bind (attr name j) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string attribute %S" name

let tier_outcomes lines =
  lines
  |> List.filter (fun j -> str_field "name" j = "robust.solver.tier")
  |> List.map (fun j -> (attr_str "tier" j, attr_str "outcome" j))

let solve_span lines =
  match
    List.filter (fun j -> str_field "name" j = "robust.solver.solve") lines
  with
  | [ j ] -> j
  | l -> Alcotest.failf "expected exactly one solve span, got %d" (List.length l)

let test_solver_trace_primary () =
  let sol, text = solve_with_trace Distributions.Lognormal.default in
  Alcotest.(check bool) "brute force answered" true
    (sol.Robust.Solver.diagnostics.Robust.Solver.chosen = Robust.Solver.Brute_force);
  let lines = parse_lines text in
  Alcotest.(check (list (pair string string))) "one accepted tier span"
    [ ("recurrence-brute-force", "accepted") ]
    (tier_outcomes lines);
  let root = solve_span lines in
  Alcotest.(check string) "root records the chosen tier"
    "recurrence-brute-force" (attr_str "chosen" root);
  (* Tier spans are children of the solve span. *)
  let root_id = Option.bind (J.member "id" root) J.to_int in
  List.iter
    (fun j ->
      if str_field "name" j = "robust.solver.tier" then
        Alcotest.(check (option int)) "tier parented to solve span" root_id
          (Option.bind (J.member "parent" j) J.to_int))
    lines

let test_solver_trace_fallback () =
  (* The heavy-tail Fréchet has no finite second moment: the trace
     must show the brute-force tier rejected (with a reason) and the
     DP tier accepted, matching the diagnostics record. *)
  let sol, text = solve_with_trace Distributions.Frechet.heavy_tail in
  let diag = sol.Robust.Solver.diagnostics in
  Alcotest.(check bool) "DP answered" true
    (diag.Robust.Solver.chosen = Robust.Solver.Dp_equal_probability);
  Alcotest.(check (list string)) "brute force rejected in diagnostics"
    [ "recurrence-brute-force" ]
    (List.map
       (fun r -> Robust.Solver.tier_name r.Robust.Solver.tier)
       diag.Robust.Solver.rejected);
  let lines = parse_lines text in
  Alcotest.(check (list (pair string string)))
    "trace covers every executed tier, in cascade order"
    [ ("recurrence-brute-force", "rejected"); ("equal-probability-dp", "accepted") ]
    (tier_outcomes lines);
  let rejected =
    List.find
      (fun j ->
        str_field "name" j = "robust.solver.tier"
        && attr_str "outcome" j = "rejected")
      lines
  in
  Alcotest.(check bool) "rejection carries a reason" true
    (String.length (attr_str "reason" rejected) > 0);
  Alcotest.(check string) "root records the fallback tier"
    "equal-probability-dp" (attr_str "chosen" (solve_span lines))

let test_solver_trace_deterministic () =
  let _, a = solve_with_trace Distributions.Lognormal.default in
  let _, b = solve_with_trace Distributions.Lognormal.default in
  Alcotest.(check string) "same seed + fake clock = identical traces" a b

(* ------------------------------ json ------------------------------ *)

(* JSON numbers are written without Printf; they must read as Printf's
   ["%.0f"] (integers below 1e15 in magnitude, -0 included) or
   ["%.17g"] (everything else, nan and the infinities included) would
   write them. *)
let prop_json_integers =
  QCheck.Test.make ~count:3000 ~name:"integer numbers print as %.0f"
    QCheck.(
      make
        Gen.(
          frequency
            [
              (4, map float_of_int (int_range (-1_000_000) 1_000_000));
              (4, map (fun f -> Float.round (f *. 1e15)) (float_range (-1.0) 1.0));
              ( 1,
                oneofl
                  [ 0.0; -0.0; 1.0; -1.0; 1e15 -. 1.0; -.(1e15 -. 1.0);
                    4503599627370496.0 /. 8.0 ] );
            ]))
    (fun v ->
      QCheck.assume (Float.is_integer v && Float.abs v < 1e15);
      String.equal (J.to_string (J.Num v)) (Printf.sprintf "%.0f" v))

let prop_json_numbers =
  QCheck.Test.make ~count:3000 ~name:"every number prints as the Printf form"
    QCheck.(
      make
        Gen.(
          frequency
            [
              (4, map Int64.float_of_bits ui64);
              (2, float_range (-1e6) 1e6);
              ( 1,
                oneofl
                  [ Float.nan; Float.infinity; Float.neg_infinity; 5e-324;
                    Float.min_float; 1e15; -1e15; 0.1; 0.001 ] );
            ]))
    (fun v -> String.equal (J.to_string (J.Num v)) (Wire_oracle.num v))

(* The fixed-notation range, 1e-4 <= |v| < 1e15, is printed without
   the C library: every digit, half-to-even tie and carry into a new
   decade must come out as ["%.17g"] writes it. *)
let prop_json_fixed_numbers =
  let open QCheck.Gen in
  let decades =
    map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range 1.0 10.0) (int_range (-5) 15)
  in
  (* m / 8 with m odd and 15 or 16 digits has 18 significant digits,
     the last a 5: an exact tie at the 17th. *)
  let ties = map (fun m -> float_of_int ((2 * m) + 1) /. 8.0) (int_range 400_000_000_000_000 3_999_999_999_999_999) in
  let edges =
    map2
      (fun k step -> step (10.0 ** float_of_int k))
      (int_range (-5) 15)
      (oneofl [ Float.pred; Float.succ; Fun.id; (fun x -> x *. 0.99999999999999994) ])
  in
  QCheck.Test.make ~count:20000 ~name:"fixed-notation numbers print as %.17g"
    QCheck.(
      make
        Gen.(
          map2
            (fun neg v -> if neg then -.v else v)
            bool
            (frequency [ (4, decades); (2, ties); (2, edges); (1, float_range 1e-4 1e15) ])))
    (fun v -> String.equal (J.to_string (J.Num v)) (Wire_oracle.num v))

(* The parser against the closure-based one it replaced: the same tree
   or the same error, byte offset included, on rendered values, on
   their truncations and one-byte edits, and on token soup. *)
let prop_json_parse_oracle =
  let open QCheck.Gen in
  let value =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              return J.Null;
              map (fun b -> J.Bool b) bool;
              map (fun v -> J.Num v) (oneof [ float; map float_of_int int; float_range (-1e3) 1e3 ]);
              map (fun s -> J.Str s) (string_size ~gen:(char_range '\000' '\127') (int_range 0 8));
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun l -> J.Arr l) (list_size (int_range 0 3) (self (depth - 1))));
              ( 1,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_range 0 3) (pair (string_size (int_range 0 5)) (self (depth - 1))))
              );
            ])
      3
  in
  let rendered = map2 (fun indent v -> J.to_string ~indent v) bool value in
  let edit s =
    let* i = int_range 0 (String.length s) and* c = oneofl (String.to_seq "{}[],:\"\\ -+.eE019tfnul\n" |> List.of_seq) in
    oneofl
      [
        String.sub s 0 i;
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i);
        (if i < String.length s then String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (String.length s - i - 1) else s);
      ]
  in
  let soup = string_size ~gen:(oneofl (String.to_seq "{}[],:\"\\ -+.eE0123456789tfnrul" |> List.of_seq)) (int_range 0 20) in
  QCheck.Test.make ~count:5000 ~name:"of_string = the closure-based parser"
    QCheck.(make ~print:(Printf.sprintf "%S") Gen.(frequency [ (2, rendered); (3, rendered >>= edit); (2, soup) ]))
    (fun s ->
      (* Rendered, so that -0 and 0 differ. *)
      let show = function Ok j -> "Ok " ^ J.to_string j | Error e -> "Error " ^ e in
      String.equal (show (J.of_string s)) (show (Wire_oracle.json_of_string s)))

let prop_json_add_int =
  QCheck.Test.make ~count:3000 ~name:"add_int writes string_of_int"
    QCheck.(make Gen.(frequency [ (8, int); (1, oneofl [ 0; min_int; max_int; -1 ]) ]))
    (fun i ->
      let buf = Buffer.create 24 in
      J.add_int buf i;
      String.equal (Buffer.contents buf) (string_of_int i))

(* Strings with and without escapes, in objects and arrays, parse back
   to what was written. *)
let prop_json_string_roundtrip =
  let str = QCheck.Gen.(string_size ~gen:(char_range '\000' '\127') (int_range 0 12)) in
  QCheck.Test.make ~count:1000 ~name:"strings round-trip through the parser"
    QCheck.(make Gen.(pair str (list_size (int_range 0 4) str)))
    (fun (k, items) ->
      let j = J.Obj [ (k, J.Arr (List.map (fun s -> J.Str s) items)); ("n", J.Num 1.5) ] in
      match J.of_string (J.to_string ~indent:false j) with
      | Ok j' -> j' = j
      | Error _ -> false)

(* -------------------- trace records vs the JSON tree --------------- *)

(* The records Trace wrote before it wrote them straight into a buffer:
   a [Json.t] tree printed by [Json.to_string ~indent:false]. *)
let oracle_value = function
  | Trace.Str s -> J.Str s
  | Trace.Num v -> J.Num v
  | Trace.Int i -> J.Num (float_of_int i)
  | Trace.Bool b -> J.Bool b

let oracle_attrs attrs = J.Obj (List.map (fun (k, v) -> (k, oracle_value v)) attrs)

let oracle_span ~name ~id ~parent ~start ~stop ~error attrs =
  let attrs = match attrs with [] -> [] | l -> [ ("attrs", oracle_attrs l) ] in
  let tail =
    ("start", J.Num start) :: ("end", J.Num stop)
    :: (match error with None -> attrs | Some msg -> ("error", J.Str msg) :: attrs)
  in
  J.to_string ~indent:false
    (J.Obj
       (("type", J.Str "span") :: ("name", J.Str name)
       :: ("id", J.Num (float_of_int id))
       :: (if parent = 0 then tail else ("parent", J.Num (float_of_int parent)) :: tail)))

let oracle_event ~name ~parent ~at attrs =
  J.to_string ~indent:false
    (J.Obj
       ([ ("type", J.Str "event"); ("name", J.Str name) ]
       @ (if parent = 0 then [] else [ ("parent", J.Num (float_of_int parent)) ])
       @ [ ("at", J.Num at) ]
       @ match attrs with [] -> [] | l -> [ ("attrs", oracle_attrs l) ]))

exception Inner_failed of string

(* An outer span (attributes at open and by [annotate]) around an inner
   span (which may raise) around an event, under a fake clock: reads
   0..4 are the outer open, inner open, event, inner close, outer
   close. Names, keys and strings carry quotes, backslashes and control
   bytes; numbers include NaN, infinities, -0 and ints past 2^53. *)
let prop_trace_records =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\255') (int_range 0 10) in
  let num =
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        (2, float_range (-1e6) 1e6);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1e15; 0.001 ]);
      ]
  in
  let value =
    frequency
      [
        (2, map (fun s -> Trace.Str s) str);
        (2, map (fun v -> Trace.Num v) num);
        (2, map (fun i -> Trace.Int i) (frequency [ (4, int); (1, oneofl [ min_int; max_int ]) ]));
        (1, map (fun b -> Trace.Bool b) bool);
      ]
  in
  let attrs = list_size (int_range 0 3) (pair str value) in
  let case =
    let* names = triple str str str in
    let* a1 = attrs and* a2 = attrs and* b1 = attrs and* c1 = attrs in
    let* error = opt str in
    let* start = float_range (-10.0) 10.0 and* step = float_range 0.0 2.0 in
    return (names, a1, a2, b1, c1, error, start, step)
  in
  QCheck.Test.make ~count:500 ~name:"trace records are the JSON tree's bytes"
    (QCheck.make case)
    (fun (names, a1, a2, b1, c1, error, start, step) ->
      let outer, inner, event = names in
      let buf = Buffer.create 512 in
      let sink = Trace.make ~clock:(Clock.fake ~start ~step ()) (Writer.to_buffer buf) in
      Trace.with_span sink ~attrs:a1 outer (fun () ->
          Trace.annotate sink a2;
          try
            Trace.with_span sink ~attrs:b1 inner (fun () ->
                Trace.instant sink ~attrs:c1 event;
                Option.iter (fun msg -> raise (Inner_failed msg)) error)
          with Inner_failed _ -> ());
      let at k = start +. (float_of_int k *. step) in
      let expected =
        [
          oracle_event ~name:event ~parent:2 ~at:(at 2) c1;
          oracle_span ~name:inner ~id:2 ~parent:1 ~start:(at 1) ~stop:(at 3)
            ~error:(Option.map (fun m -> Printexc.to_string (Inner_failed m)) error)
            b1;
          oracle_span ~name:outer ~id:1 ~parent:0 ~start:(at 0) ~stop:(at 4) ~error:None
            (a1 @ a2);
        ]
      in
      String.equal (Buffer.contents buf) (String.concat "" (List.map (fun l -> l ^ "\n") expected)))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "fake clock" `Quick test_fake_clock ] );
      ( "trace",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "golden JSONL" `Quick test_golden_jsonl;
          Alcotest.test_case "span/event counts" `Quick test_trace_counts;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "error span" `Quick test_error_span;
          Alcotest.test_case "lines parse" `Quick test_trace_lines_parse;
          QCheck_alcotest.to_alcotest prop_trace_records;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter saturation" `Quick test_counter_saturation;
          Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
          Alcotest.test_case "registration" `Quick test_registration;
          Alcotest.test_case "snapshot/diff" `Quick test_snapshot_diff;
          Alcotest.test_case "diff clamps" `Quick test_diff_clamps_and_passes_through;
          Alcotest.test_case "zero filter" `Quick test_zero_filter;
          Alcotest.test_case "json roundtrip" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "log",
        [ Alcotest.test_case "levels" `Quick test_log_levels ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_integers;
          QCheck_alcotest.to_alcotest prop_json_numbers;
          QCheck_alcotest.to_alcotest prop_json_fixed_numbers;
          QCheck_alcotest.to_alcotest prop_json_parse_oracle;
          QCheck_alcotest.to_alcotest prop_json_add_int;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
        ] );
      ( "solver",
        [
          Alcotest.test_case "primary tier span" `Quick test_solver_trace_primary;
          Alcotest.test_case "fallback tier spans" `Quick test_solver_trace_fallback;
          Alcotest.test_case "trace determinism" `Quick test_solver_trace_deterministic;
        ] );
    ]
