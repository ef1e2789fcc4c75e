(* Golden tests for the linter: each rule fires on its fixture at the
   recorded file:line:col, suppressions and the baseline filter work,
   and the CLI exit codes match the CI contract (0 clean / 1 findings
   / 2 parse error). Fixture sources live under [fixtures/lint/]; the
   directory walker skips them, so they only lint when named
   explicitly, with [--context] standing in for their pretend
   location. *)

open Stochlint_lib

let fixture name = Filename.concat "fixtures/lint" name
let exe = Filename.concat ".." "bin/stochlint.exe"

let report ?context name =
  match Driver.lint_file ?context (fixture name) with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "fixture %s failed to parse: %s: %s" name e.err_file
        e.err_message

(* (rule id, line, col) triples — enough to pin the golden locations
   without being brittle about message wording. *)
let locs (r : Driver.file_report) =
  List.map
    (fun (f : Finding.t) -> (Finding.rule_id f.rule, f.line, f.col))
    r.fr_findings

let check_locs = Alcotest.(check (list (triple string int int)))

(* --- one golden fixture per rule ------------------------------------ *)

let test_float_eq () =
  let r = report ~context:(Rules.Lib "core") "float_eq.ml" in
  check_locs "float_eq findings"
    [ ("FLOAT_EQ", 5, 22); ("FLOAT_EQ", 7, 21); ("FLOAT_EQ", 9, 23) ]
    (locs r)

let test_partial_fn () =
  let r = report ~context:(Rules.Lib "core") "partial_fn.ml" in
  check_locs "partial_fn findings"
    [
      ("PARTIAL_FN", 3, 15);
      ("PARTIAL_FN", 5, 16);
      ("PARTIAL_FN", 7, 15);
      ("PARTIAL_FN", 9, 19);
      ("PARTIAL_FN", 11, 31);
      (* line 13, the [arr.(i)] sugar, must NOT appear *)
    ]
    (locs r)

let test_partial_fn_allowed_in_tests () =
  let r = report ~context:Rules.Test "partial_fn.ml" in
  check_locs "PARTIAL_FN is off in test code" [] (locs r)

let test_exn_in_core () =
  let r = report ~context:(Rules.Lib "numerics") "exn_in_core.ml" in
  check_locs "exn_in_core findings (invalid_arg stays legal)"
    [ ("EXN_IN_CORE", 4, 34); ("EXN_IN_CORE", 6, 16) ]
    (locs r)

let test_exn_outside_core_layers () =
  let r = report ~context:(Rules.Lib "core") "exn_in_core.ml" in
  check_locs "EXN_IN_CORE only covers numerics/robustness" [] (locs r)

let test_unseeded_random () =
  let r = report ~context:Rules.Test "unseeded_random.ml" in
  check_locs "unseeded_random findings (fires even in tests)"
    [
      ("UNSEEDED_RANDOM", 4, 14);
      ("UNSEEDED_RANDOM", 6, 14);
      ("UNSEEDED_RANDOM", 8, 20);
    ]
    (locs r)

let test_print_in_lib () =
  let r = report ~context:(Rules.Lib "core") "print_in_lib.ml" in
  check_locs "print_in_lib findings (sprintf stays legal)"
    [ ("PRINT_IN_LIB", 3, 15); ("PRINT_IN_LIB", 5, 14) ]
    (locs r)

let test_print_allowed_in_bin () =
  let r = report ~context:Rules.Bin "print_in_lib.ml" in
  check_locs "PRINT_IN_LIB is off in executables" [] (locs r)

let test_unlogged_sink () =
  let r = report ~context:(Rules.Lib "core") "unlogged_sink.ml" in
  check_locs "unlogged_sink findings (parameterised sinks stay legal)"
    [
      ("UNLOGGED_SINK", 4, 29);
      ("UNLOGGED_SINK", 6, 32);
      ("UNLOGGED_SINK", 8, 29);
    ]
    (locs r);
  Alcotest.(check int) "escape hatch consumed" 1 r.fr_suppressed

let test_unlogged_sink_off_outside_lib () =
  let r = report ~context:Rules.Bin "unlogged_sink.ml" in
  check_locs "UNLOGGED_SINK is off in executables" [] (locs r)

(* --- suppression and clean fixtures --------------------------------- *)

let test_suppressed () =
  let r = report ~context:(Rules.Lib "core") "suppressed.ml" in
  check_locs "suppressed findings" [] (locs r);
  Alcotest.(check int) "both directives consumed" 2 r.fr_suppressed;
  Alcotest.(check int) "no malformed directives" 0
    (List.length r.fr_malformed)

let test_clean () =
  let r = report ~context:(Rules.Lib "core") "clean.ml" in
  check_locs "clean fixture" [] (locs r);
  Alcotest.(check int) "nothing suppressed" 0 r.fr_suppressed

let test_walker_skips_fixtures () =
  (* Walking the test directory itself must not descend into
     fixtures/ — fixture sources violate rules on purpose and would
     otherwise fail @lint. Explicit file arguments still reach them. *)
  let files = Driver.collect_files [ "." ] in
  Alcotest.(check bool) "walk found the test sources" true (files <> []);
  let contains_fixtures f =
    let n = String.length f and m = 8 (* "fixtures" *) in
    let rec at i = i + m <= n && (String.sub f i m = "fixtures" || at (i + 1)) in
    at 0
  in
  List.iter
    (fun f ->
      if contains_fixtures f then Alcotest.failf "walker descended into %s" f)
    files

(* --- rule metadata --------------------------------------------------- *)

let test_rule_id_roundtrip () =
  List.iter
    (fun rule ->
      match Finding.rule_of_id (Finding.rule_id rule) with
      | Some r when r = rule -> ()
      | _ -> Alcotest.failf "rule id %s does not round-trip"
               (Finding.rule_id rule))
    Finding.all_rules

let test_severities () =
  let sev r = Finding.(severity_to_string (severity r)) in
  Alcotest.(check string) "FLOAT_EQ" "error" (sev Finding.Float_eq);
  Alcotest.(check string) "PARTIAL_FN" "error" (sev Finding.Partial_fn);
  Alcotest.(check string) "UNSEEDED_RANDOM" "error"
    (sev Finding.Unseeded_random);
  Alcotest.(check string) "EXN_IN_CORE" "warning" (sev Finding.Exn_in_core);
  Alcotest.(check string) "PRINT_IN_LIB" "warning" (sev Finding.Print_in_lib);
  Alcotest.(check string) "UNLOGGED_SINK" "warning"
    (sev Finding.Unlogged_sink)

(* --- baseline filtering ---------------------------------------------- *)

let float_eq_findings () =
  (report ~context:(Rules.Lib "core") "float_eq.ml").fr_findings

let test_baseline_absorbs () =
  let findings = float_eq_findings () in
  let b = Baseline.of_findings findings in
  let app = Baseline.apply b findings in
  Alcotest.(check int) "nothing kept" 0 (List.length app.kept);
  Alcotest.(check int) "all absorbed" (List.length findings) app.baselined;
  Alcotest.(check int) "no group over budget" 0 (List.length app.exceeded)

let test_baseline_exceeded_reports_whole_group () =
  let findings = float_eq_findings () in
  (* Grandfather one fewer than present: the whole (file, rule) group
     must come back, since counts cannot single out the new one. *)
  let b = Baseline.of_findings (List.tl findings) in
  let app = Baseline.apply b findings in
  Alcotest.(check int) "whole group kept" (List.length findings)
    (List.length app.kept);
  match app.exceeded with
  | [ (file, rule, found, allowed) ] ->
      Alcotest.(check string) "group file" (fixture "float_eq.ml") file;
      Alcotest.(check string) "group rule" "FLOAT_EQ" (Finding.rule_id rule);
      Alcotest.(check int) "found" (List.length findings) found;
      Alcotest.(check int) "allowed" (List.length findings - 1) allowed
  | l -> Alcotest.failf "expected one exceeded group, got %d" (List.length l)

let test_baseline_roundtrip () =
  let findings = float_eq_findings () in
  let path = Filename.temp_file "stochlint" ".json" in
  let oc = open_out path in
  output_string oc (Baseline.to_json_string (Baseline.of_findings findings));
  close_out oc;
  let b =
    match Baseline.load path with
    | Ok b -> b
    | Error e -> Alcotest.failf "baseline reload failed: %s" e
  in
  Sys.remove path;
  Alcotest.(check int) "count survives the round-trip"
    (List.length findings)
    (Baseline.allowed b ~file:(fixture "float_eq.ml") ~rule:Finding.Float_eq)

let test_baseline_missing_file () =
  match Baseline.load "no-such-baseline.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing baseline must be an error"

(* --- CLI exit codes (the CI contract) -------------------------------- *)

let run_cli args =
  Sys.command
    (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
       args)

let test_exit_clean () =
  Alcotest.(check int) "clean file exits 0" 0
    (run_cli [ "--context"; "lib:core"; fixture "clean.ml" ])

let test_exit_findings () =
  Alcotest.(check int) "seeded violation exits 1" 1
    (run_cli [ "--context"; "lib:core"; fixture "float_eq.ml" ])

let test_exit_parse_error () =
  Alcotest.(check int) "unparseable source exits 2" 2
    (run_cli [ "--context"; "lib:core"; fixture "broken.ml" ])

let with_baseline_file contents f =
  let path = Filename.temp_file "stochlint" ".json" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_exit_seeded_violation_vs_empty_baseline () =
  (* The CI gate: an empty baseline must NOT absorb a fresh violation. *)
  with_baseline_file
    (Baseline.to_json_string Baseline.empty)
    (fun path ->
      Alcotest.(check int) "empty baseline still fails" 1
        (run_cli
           [ "--context"; "lib:core"; "--baseline"; path;
             fixture "float_eq.ml" ]))

let test_exit_baselined_violation_passes () =
  with_baseline_file
    (Baseline.to_json_string (Baseline.of_findings (float_eq_findings ())))
    (fun path ->
      Alcotest.(check int) "grandfathered findings pass" 0
        (run_cli
           [ "--context"; "lib:core"; "--baseline"; path;
             fixture "float_eq.ml" ]))

let test_json_report () =
  let out = Filename.temp_file "stochlint" ".out" in
  let status =
    Sys.command
      (Filename.quote_command exe ~stdout:out ~stderr:Filename.null
         [ "--json"; "--context"; "lib:core"; fixture "float_eq.ml" ])
  in
  let ic = open_in_bin out in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  Alcotest.(check int) "exit code" 1 status;
  let json =
    match Stochobs.Json.of_string raw with
    | Ok j -> j
    | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  in
  let get name conv =
    match Option.bind (Stochobs.Json.member name json) conv with
    | Some v -> v
    | None -> Alcotest.failf "report field %s missing or mistyped" name
  in
  let findings = get "findings" Stochobs.Json.to_list in
  Alcotest.(check int) "three findings in the report" 3
    (List.length findings);
  let first = List.hd findings in
  let field name conv =
    match Option.bind (Stochobs.Json.member name first) conv with
    | Some v -> v
    | None -> Alcotest.failf "finding field %s missing or mistyped" name
  in
  Alcotest.(check string) "rule id" "FLOAT_EQ" (field "rule" Stochobs.Json.to_str);
  Alcotest.(check int) "line" 5 (field "line" Stochobs.Json.to_int);
  Alcotest.(check string) "file" (fixture "float_eq.ml")
    (field "file" Stochobs.Json.to_str)

(* --- CLI golden output: stdout, stderr and exit code, byte for byte --- *)

let lint ?subst args = Golden_cli.run ?subst exe args
let core = [ "--context"; "lib:core" ]

let float_eq_lines =
  {|fixtures/lint/float_eq.ml:5:22: error FLOAT_EQ: exact float comparison `=` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)
fixtures/lint/float_eq.ml:7:21: error FLOAT_EQ: exact float comparison `<>` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)
fixtures/lint/float_eq.ml:9:23: error FLOAT_EQ: exact float comparison `=` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)
|}

let usage_text =
  {|usage: stochlint [--json] [--baseline FILE] [--update-baseline]
                 [--context lib:NAME|bin|test|other] [--quiet] [PATH...]
|}

let test_golden_human () =
  Golden_cli.check "human report over every fixture" ~code:2
    ~out:
      (float_eq_lines
     ^ {|fixtures/lint/partial_fn.ml:3:15: error PARTIAL_FN: partial function `List.hd` can raise at runtime; pattern-match on the list shape instead
fixtures/lint/partial_fn.ml:5:16: error PARTIAL_FN: partial function `List.nth` can raise at runtime; pattern-match on the list shape instead
fixtures/lint/partial_fn.ml:7:15: error PARTIAL_FN: partial function `Option.get` can raise at runtime; match on the option or thread the value through
fixtures/lint/partial_fn.ml:9:19: error PARTIAL_FN: partial function `Hashtbl.find` can raise at runtime; use Hashtbl.find_opt
fixtures/lint/partial_fn.ml:11:31: error PARTIAL_FN: partial function `Array.get` can raise at runtime; bounds-check or restructure the index computation
fixtures/lint/print_in_lib.ml:3:15: warning PRINT_IN_LIB: `print_endline` writes to a global channel from library code; format through `Fmt` or return the data
fixtures/lint/print_in_lib.ml:5:14: warning PRINT_IN_LIB: `Printf.printf` writes to a global channel from library code; use `sprintf`/`asprintf` or a caller-supplied formatter
fixtures/lint/unlogged_sink.ml:4:29: warning UNLOGGED_SINK: ambient channel `stdout` referenced from library code; accept a `Stochobs.Writer.t` (or `Log.t`) from the caller instead
fixtures/lint/unlogged_sink.ml:6:32: warning UNLOGGED_SINK: ambient formatter `Format.std_formatter` referenced from library code; take the formatter as a parameter or log via `Stochobs.Log`
fixtures/lint/unlogged_sink.ml:8:29: warning UNLOGGED_SINK: ambient channel `stderr` referenced from library code; accept a `Stochobs.Writer.t` (or `Log.t`) from the caller instead
fixtures/lint/unseeded_random.ml:4:14: error UNSEEDED_RANDOM: global `Random.self_init` breaks seeded fault-trace/fuzz reproducibility; draw from an explicit `Randomness.Rng.t` state
fixtures/lint/unseeded_random.ml:6:14: error UNSEEDED_RANDOM: global `Random.float` breaks seeded fault-trace/fuzz reproducibility; draw from an explicit `Randomness.Rng.t` state
fixtures/lint/unseeded_random.ml:8:20: error UNSEEDED_RANDOM: global `Random.State.float` breaks seeded fault-trace/fuzz reproducibility; draw from an explicit `Randomness.Rng.t` state
stochlint: 9 files, 16 findings (11 errors, 5 warnings), 3 suppressed inline, 0 baselined
|})
    ~err:"stochlint: fixtures/lint/broken.ml:3:0: cannot parse: syntax error\n"
    (lint (core @ [ "fixtures/lint" ]))

let test_golden_quiet () =
  Golden_cli.check "--quiet drops the summary" ~code:1 ~out:float_eq_lines
    (lint (("--quiet" :: core) @ [ fixture "float_eq.ml" ]))

let test_golden_json () =
  Golden_cli.check "--json envelope" ~code:2
    ~out:
      {|{
  "version": 1,
  "files": 2,
  "findings": [
    {
      "file": "fixtures/lint/float_eq.ml",
      "line": 5,
      "col": 22,
      "rule": "FLOAT_EQ",
      "severity": "error",
      "message": "exact float comparison `=` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)"
    },
    {
      "file": "fixtures/lint/float_eq.ml",
      "line": 7,
      "col": 21,
      "rule": "FLOAT_EQ",
      "severity": "error",
      "message": "exact float comparison `<>` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)"
    },
    {
      "file": "fixtures/lint/float_eq.ml",
      "line": 9,
      "col": 23,
      "rule": "FLOAT_EQ",
      "severity": "error",
      "message": "exact float comparison `=` on a float operand; use a tolerance or an explicit inequality (or suppress if the exact value is an intentional sentinel)"
    }
  ],
  "suppressed": 0,
  "baselined": 0,
  "errors": [
    {
      "file": "fixtures/lint/broken.ml",
      "line": 3,
      "col": 0,
      "message": "syntax error"
    }
  ]
}
|}
    (lint (("--json" :: core) @ [ fixture "float_eq.ml"; fixture "broken.ml" ]))

let test_golden_usage () =
  Golden_cli.check "-h" ~code:2 ~err:usage_text (lint [ "-h" ]);
  Golden_cli.check "unknown option" ~code:2
    ~err:("stochlint: unknown option --bogus\n" ^ usage_text)
    (lint [ "--bogus"; fixture "clean.ml" ]);
  Golden_cli.check "bad --context" ~code:2
    ~err:
      ("stochlint: bad context \"nowhere\" (expected lib:NAME, bin, test or \
        other)\n" ^ usage_text)
    (lint [ "--context"; "nowhere"; fixture "clean.ml" ]);
  Golden_cli.check "--update-baseline without --baseline" ~code:2
    ~err:"stochlint: --update-baseline requires --baseline FILE\n"
    (lint (("--update-baseline" :: core) @ [ fixture "float_eq.ml" ]));
  Golden_cli.check "missing baseline" ~code:2
    ~err:"stochlint: no-such-baseline.json: No such file or directory\n"
    (lint
       ([ "--baseline"; "no-such-baseline.json" ] @ core
       @ [ fixture "float_eq.ml" ]))

(* A root that does not exist is an input error naming it: exit 2, the
   other roots still linted. *)
let test_golden_missing_root () =
  Golden_cli.check "missing root" ~code:2
    ~out:"stochlint: 1 files, 0 findings (0 errors, 0 warnings), 0 suppressed inline, 0 baselined\n"
    ~err:"stochlint: no-such-dir: cannot parse: no such file or directory\n"
    (lint (core @ [ "no-such-dir"; fixture "clean.ml" ]))

let test_golden_update_baseline () =
  let path = Filename.temp_file "stochlint" ".json" in
  Sys.remove path;
  let subst = [ (path, "BASELINE") ] in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Golden_cli.check "--update-baseline to a new file" ~code:0
        ~out:
          "stochlint: wrote BASELINE (3 findings grandfathered across 1 \
           files)\n"
        (lint ~subst
           ([ "--baseline"; path; "--update-baseline" ] @ core
           @ [ fixture "float_eq.ml" ]));
      Alcotest.(check string) "baseline file"
        {|{
  "version": 1,
  "entries": [
    {
      "file": "fixtures/lint/float_eq.ml",
      "rule": "FLOAT_EQ",
      "count": 3
    }
  ]
}
|}
        (Golden_cli.read_file path);
      Golden_cli.check "the written baseline passes" ~code:0
        ~out:
          "stochlint: 1 files, 0 findings (0 errors, 0 warnings), 0 \
           suppressed inline, 3 baselined\n"
        (lint (([ "--baseline"; path ] @ core) @ [ fixture "float_eq.ml" ])))

let test_golden_exceeded () =
  with_baseline_file
    {|{"version": 1, "entries": [{"file": "fixtures/lint/float_eq.ml", "rule": "FLOAT_EQ", "count": 1}]}|}
    (fun path ->
      Golden_cli.check "exceeded baseline group" ~code:1
        ~out:
          (float_eq_lines
         ^ "fixtures/lint/float_eq.ml: FLOAT_EQ count 3 exceeds the baselined \
            1 — the whole group is shown above; fix the new site or refresh \
            the baseline\n\
            stochlint: 1 files, 3 findings (3 errors, 0 warnings), 0 \
            suppressed inline, 0 baselined\n")
        (lint (([ "--baseline"; path ] @ core) @ [ fixture "float_eq.ml" ])))

let test_golden_malformed () =
  let path = Filename.temp_file "stochlint" ".ml" in
  (* Split so that this file's own scan sees no directive here. *)
  Golden_cli.write_file path
    ("let x = 1 (* stochlint" ^ ": allow NOPE - typo *)\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Golden_cli.check "malformed suppression warning" ~code:0
        ~out:
          "stochlint: 1 files, 0 findings (0 errors, 0 warnings), 0 \
           suppressed inline, 0 baselined\n"
        ~err:
          "stochlint: SOURCE:1: warning: unparseable suppression comment \
           (unknown rule id NOPE)\n"
        (lint ~subst:[ (path, "SOURCE") ] (core @ [ path ])))

(* --- context classification ------------------------------------------ *)

let ctx =
  Alcotest.testable
    (fun ppf -> function
      | Rules.Lib s -> Format.fprintf ppf "Lib %s" s
      | Rules.Bin -> Format.pp_print_string ppf "Bin"
      | Rules.Test -> Format.pp_print_string ppf "Test"
      | Rules.Other -> Format.pp_print_string ppf "Other")
    ( = )

let test_context_of_path () =
  let check path expect =
    Alcotest.check ctx path expect (Rules.context_of_path path)
  in
  check "lib/numerics/specfun.ml" (Rules.Lib "numerics");
  check "lib/robustness/solver.ml" (Rules.Lib "robustness");
  check "bin/stochlint.ml" Rules.Bin;
  check "test/test_lint.ml" Rules.Test;
  check "dune-project" Rules.Other

let () =
  Alcotest.run "stochlint"
    [
      ( "rules",
        [
          Alcotest.test_case "FLOAT_EQ golden" `Quick test_float_eq;
          Alcotest.test_case "PARTIAL_FN golden" `Quick test_partial_fn;
          Alcotest.test_case "PARTIAL_FN off in tests" `Quick
            test_partial_fn_allowed_in_tests;
          Alcotest.test_case "EXN_IN_CORE golden" `Quick test_exn_in_core;
          Alcotest.test_case "EXN_IN_CORE scoped to core layers" `Quick
            test_exn_outside_core_layers;
          Alcotest.test_case "UNSEEDED_RANDOM golden" `Quick
            test_unseeded_random;
          Alcotest.test_case "PRINT_IN_LIB golden" `Quick test_print_in_lib;
          Alcotest.test_case "PRINT_IN_LIB off in bin" `Quick
            test_print_allowed_in_bin;
          Alcotest.test_case "UNLOGGED_SINK golden" `Quick test_unlogged_sink;
          Alcotest.test_case "UNLOGGED_SINK off in bin" `Quick
            test_unlogged_sink_off_outside_lib;
          Alcotest.test_case "inline suppression" `Quick test_suppressed;
          Alcotest.test_case "clean fixture" `Quick test_clean;
          Alcotest.test_case "walker skips fixtures/" `Quick
            test_walker_skips_fixtures;
          Alcotest.test_case "rule ids round-trip" `Quick
            test_rule_id_roundtrip;
          Alcotest.test_case "severity table" `Quick test_severities;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "absorbs grandfathered findings" `Quick
            test_baseline_absorbs;
          Alcotest.test_case "over-budget group fully reported" `Quick
            test_baseline_exceeded_reports_whole_group;
          Alcotest.test_case "JSON round-trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "missing file is an error" `Quick
            test_baseline_missing_file;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit 0 on clean" `Quick test_exit_clean;
          Alcotest.test_case "exit 1 on findings" `Quick test_exit_findings;
          Alcotest.test_case "exit 2 on parse error" `Quick
            test_exit_parse_error;
          Alcotest.test_case "empty baseline fails seeded violation" `Quick
            test_exit_seeded_violation_vs_empty_baseline;
          Alcotest.test_case "full baseline passes" `Quick
            test_exit_baselined_violation_passes;
          Alcotest.test_case "--json report shape" `Quick test_json_report;
        ] );
      ( "cli-golden",
        [
          Alcotest.test_case "human report" `Quick test_golden_human;
          Alcotest.test_case "--quiet" `Quick test_golden_quiet;
          Alcotest.test_case "--json" `Quick test_golden_json;
          Alcotest.test_case "usage errors" `Quick test_golden_usage;
          Alcotest.test_case "missing root" `Quick test_golden_missing_root;
          Alcotest.test_case "--update-baseline" `Quick
            test_golden_update_baseline;
          Alcotest.test_case "exceeded baseline" `Quick test_golden_exceeded;
          Alcotest.test_case "malformed suppression" `Quick
            test_golden_malformed;
        ] );
      ( "context",
        [ Alcotest.test_case "path classification" `Quick test_context_of_path ] );
    ]
