(* Golden tests for stochdomcheck: each rule family fires on its
   fixture at the recorded file:line:col, a write chain crosses a
   compilation-unit boundary, inline suppression and the baseline
   filter both hold findings back, and the effect signatures of the
   Randomness entry points stay pinned (threaded state, never
   ambient). Fixture sources live under [fixtures/domcheck/] and are
   compiled to [.cmt] by the dune rules next to them; the stochlint
   walker skips the directory, so only this analysis reads them. *)

open Stochlint_lib

let fixture_root = "fixtures/domcheck"

let fixture_cmt unit = Filename.concat fixture_root (unit ^ ".cmt")

(* The test binary runs in [_build/default/test]; the library trees
   live one level up. *)
let randomness_root = "../lib/randomness"

let analyze ?(entries = []) root =
  Domcheck.analyze ~context:(fun _ -> Rules.Lib "fixture") ~source_root:root ~entries
    [ root ]

let locs (o : Domcheck.outcome) file =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.file = file then Some (Finding.rule_id f.rule, f.line, f.col)
      else None)
    o.findings

let check_locs = Alcotest.(check (list (triple string int int)))

let find_global (o : Domcheck.outcome) path =
  match
    List.find_opt (fun (g : Domcheck.global) -> g.g_pretty = path) o.globals
  with
  | Some g -> g
  | None -> Alcotest.failf "global %s missing from the inventory" path

let find_entry (o : Domcheck.outcome) path =
  match
    List.find_opt
      (fun (e : Domcheck.entry_report) -> e.e_pretty = path)
      o.entries
  with
  | Some e -> e
  | None -> Alcotest.failf "entry %s missing from the report" path

(* --- GLOBAL_MUT_STATE: inventory, decoys, suppression --------------- *)

let test_glob_mut () =
  let o = analyze fixture_root in
  check_locs "one finding per mutable global, none for the decoys"
    [
      ("GLOBAL_MUT_STATE", 8, 4);
      ("GLOBAL_MUT_STATE", 9, 4);
      ("GLOBAL_MUT_STATE", 10, 4);
      ("GLOBAL_MUT_STATE", 11, 4);
    ]
    (locs o "glob_mut.ml");
  let allowed = find_global o "Glob_mut.allowed" in
  (match allowed.g_suppressed with
  | Some reason ->
      Alcotest.(check bool)
        "suppression reason is carried into the report" true
        (String.length reason > 0)
  | None -> Alcotest.fail "Glob_mut.allowed should be suppressed inline");
  Alcotest.(check bool)
    "decoy immutable record is not inventoried" true
    (not
       (List.exists
          (fun (g : Domcheck.global) -> g.g_pretty = "Glob_mut.origin")
          o.globals))

let test_writer_attribution () =
  let o = analyze fixture_root in
  let table = find_global o "Glob_mut.table" in
  Alcotest.(check (list string))
    "direct writer recorded" [ "Glob_mut.record" ] table.g_writers;
  let total = find_global o "Glob_mut.total" in
  Alcotest.(check (list string))
    "incr through the builtin table counts as a write" [ "Glob_mut.bump" ]
    total.g_writers

(* A global handed to a parameter-mutating callee is written by the
   caller; one nested inside another call's argument is handed to that
   inner call, and [Array.to_list] only reads it. *)
let test_handed_arguments () =
  let o = analyze fixture_root in
  let shared = find_global o "Pass_arg.shared" in
  Alcotest.(check (list string))
    "the argument itself is handed over" [ "Pass_arg.direct" ]
    shared.g_writers;
  let kept = find_global o "Pass_arg.kept" in
  Alcotest.(check (list string))
    "a nested argument is not handed to the outer call" [] kept.g_writers;
  Alcotest.(check bool) "an unwritten array stays quiet" true kept.g_quiet;
  check_locs "only the handed array is a finding"
    [ ("GLOBAL_MUT_STATE", 7, 4) ]
    (locs o "pass_arg.ml")

(* --- DOMAIN_UNSAFE_REACH: cross-module write propagation ------------ *)

let test_cross_module_reach () =
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  check_locs "entry flagged at its definition"
    [ ("DOMAIN_UNSAFE_REACH", 6, 4) ]
    (locs o "store_b.ml");
  let f =
    match
      List.find_opt
        (fun (f : Finding.t) -> f.rule = Finding.Domain_unsafe_reach)
        o.findings
    with
    | Some f -> f
    | None -> Alcotest.fail "DOMAIN_UNSAFE_REACH finding missing"
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "witness chain names the intermediate hop" true
    (contains f.message "Store_b.record -> Store_a.put");
  let e = find_entry o "Store_b.run" in
  Alcotest.(check (list string))
    "unsafe write set" [ "Store_a.registry" ] e.e_unsafe;
  Alcotest.(check bool) "writes-global inferred" true e.e_eff.Effects.writes_global

let test_unlisted_entry_not_flagged () =
  (* Store_a.put writes the registry, but only declared entry points
     raise DOMAIN_UNSAFE_REACH — the rule is about fan-out candidates,
     not every mutator. *)
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  Alcotest.(check (list (triple string int int)))
    "no entry findings in store_a"
    [ ("GLOBAL_MUT_STATE", 4, 4) ]
    (locs o "store_a.ml")

(* --- RNG_AMBIENT ----------------------------------------------------- *)

let test_rng_ambient () =
  let o =
    analyze ~entries:[ "Rng_amb.run"; "Rng_glob.run" ] fixture_root
  in
  check_locs "stdlib Random reached transitively"
    [ ("RNG_AMBIENT", 6, 4) ]
    (locs o "rng_amb.ml");
  check_locs "global generator flagged at def site and at the entry"
    [ ("RNG_AMBIENT", 5, 4); ("RNG_AMBIENT", 7, 4) ]
    (locs o "rng_glob.ml");
  let e = find_entry o "Rng_amb.run" in
  Alcotest.(check bool) "entry is rng-ambient" true e.e_rng_ambient;
  Alcotest.(check bool) "stdlib rng flag propagated" true e.e_eff.Effects.rng

(* --- suppression + baseline filtering ------------------------------- *)

let test_baseline_filter () =
  let o = analyze ~entries:[ "Store_b.run"; "Rng_amb.run" ] fixture_root in
  Alcotest.(check bool) "fixture produces findings" true (o.findings <> []);
  Alcotest.(check bool) "inline suppression counted" true (o.suppressed >= 1);
  let b = Baseline.of_findings o.findings in
  let applied = Baseline.apply b o.findings in
  Alcotest.(check int) "a fresh baseline grandfathers everything" 0
    (List.length applied.kept);
  Alcotest.(check int) "nothing exceeds its own baseline" 0
    (List.length applied.exceeded);
  (* A new finding on a baselined file must surface the whole group. *)
  let extra =
    match o.findings with
    | f -> (
        match List.find_opt (fun (x : Finding.t) -> x.file = "glob_mut.ml") f with
        | Some f0 -> { f0 with Finding.line = f0.line + 100 }
        | None -> Alcotest.fail "expected a glob_mut.ml finding")
  in
  let applied' = Baseline.apply b (extra :: o.findings) in
  Alcotest.(check bool) "an extra finding breaks through the baseline" true
    (applied'.kept <> [])

(* --- UNUSED_EXPORT ---------------------------------------------------- *)

(* Exports_test is test code; every other fixture is library code. *)
let exports_context file =
  if file = "exports_test.ml" then Rules.Test else Rules.Lib "fixture"

let test_unused_export () =
  let o =
    Domcheck.analyze ~context:exports_context ~source_root:fixture_root
      ~entries:[] [ fixture_root ]
  in
  check_locs "the value nobody mentions and the one only a test mentions"
    [ ("UNUSED_EXPORT", 6, 0); ("UNUSED_EXPORT", 7, 0) ]
    (locs o "exports.mli");
  (* With every fixture read as library code, Exports_test's call makes
     [seam] used, so its allow marker has nothing to hold back. *)
  let all_lib = analyze fixture_root in
  Alcotest.(check int) "the marked seam is suppressed and counted"
    (all_lib.suppressed + 1) o.suppressed

(* Exports_alias reaches [aliased] through a top-level [module X =
   Exports] and [local_aliased] through a [let module]: with it loaded
   both resolve to Exports values and stop being findings. *)
let test_alias_mentions () =
  let flagged units =
    let o =
      Domcheck.analyze ~context:exports_context ~source_root:fixture_root
        ~entries:[] (List.map fixture_cmt units)
    in
    List.map (fun (_, line, _) -> line) (locs o "exports.mli")
  in
  let base = [ "exports"; "exports_user"; "exports_test" ] in
  Alcotest.(check (list int)) "without the aliasing caller" [ 6; 7; 12; 13 ]
    (flagged base);
  Alcotest.(check (list int)) "with it" [ 6; 7 ]
    (flagged (base @ [ "exports_alias" ]))

(* The allow marker excuses a value only tests mention; a value that
   nothing mentions stays a finding, marker or not. *)
let test_marker_needs_a_test_caller () =
  let o =
    Domcheck.analyze ~context:exports_context ~source_root:fixture_root
      ~entries:[]
      (List.map fixture_cmt [ "exports"; "exports_user"; "exports_alias" ])
  in
  check_locs "seam without its test caller"
    [ ("UNUSED_EXPORT", 6, 0); ("UNUSED_EXPORT", 7, 0); ("UNUSED_EXPORT", 10, 0) ]
    (locs o "exports.mli");
  Alcotest.(check int) "nothing suppressed" 0 o.suppressed

(* Only library interfaces are held to the rule: read as test code, the
   same units give no UNUSED_EXPORT finding. *)
let test_only_lib_interfaces () =
  let o =
    Domcheck.analyze ~context:(fun _ -> Rules.Test) ~source_root:fixture_root
      ~entries:[] [ fixture_root ]
  in
  Alcotest.(check (list (triple string int int))) "no finding in exports.mli" []
    (locs o "exports.mli")

(* bench/main.ml and perfbench/main.ml are both Dune__exe__Main: both
   load, while the same cmt seen twice (a byte and a native copy)
   collapses to one unit. *)
let test_same_name_units () =
  let main dir = Filename.concat dir ".main.eobjs/byte/dune__exe__Main.cmt" in
  let bench = main "../bench" and perfbench = main "../perfbench" in
  let units, errors = Cmt_load.load_all [ bench; perfbench; bench ] in
  Alcotest.(check int) "no load errors" 0 (List.length errors);
  Alcotest.(check (list (pair string string)))
    "one unit per source"
    [
      ("Dune__exe__Main", "bench/main.ml");
      ("Dune__exe__Main", "perfbench/main.ml");
    ]
    (List.map
       (fun (u : Cmt_load.unit_info) -> (u.ui_name, u.ui_source))
       units);
  (* Both units keep every function, their <init>s included. *)
  let functions roots =
    (Domcheck.analyze ~context:(fun _ -> Rules.Bin) ~source_root:".."
       ~entries:[] roots)
      .Domcheck.functions
  in
  Alcotest.(check int) "both units' functions"
    (functions [ bench ] + functions [ perfbench ])
    (functions [ bench; perfbench ])

(* --- Effects: builtin table and lattice ------------------------------ *)

let builtin =
  Alcotest.testable
    (fun fmt b ->
      Format.pp_print_string fmt
        (match b with
        | Effects.Mutator -> "Mutator"
        | Reader -> "Reader"
        | Io -> "Io"
        | Rng -> "Rng"
        | Opaque -> "Opaque"))
    ( = )

(* Named externals come from the table; unnamed ones fall back on their
   module prefix, and anything else is assumed pure. *)
let test_classify () =
  let check name expected path =
    Alcotest.check builtin name expected (Effects.classify path)
  in
  check "Hashtbl.replace mutates" Mutator "Stdlib.Hashtbl.replace";
  check "ref assignment mutates" Mutator "Stdlib.:=";
  check "Hashtbl.find reads" Reader "Stdlib.Hashtbl.find";
  check "print_string is io" Io "Stdlib.print_string";
  check "exit is io" Io "Stdlib.exit";
  check "any Unix call is io" Io "Unix.gettimeofday";
  check "any Random call is rng" Rng "Stdlib.Random.int";
  check "List.map is opaque" Opaque "Stdlib.List.map";
  check "unknown paths are opaque" Opaque "Somewhere.else"

let gen_effects =
  QCheck.(
    map
      (fun (a, b, c, d, e, f) ->
        {
          Effects.reads_global = a;
          writes_global = b;
          reads_param = c;
          writes_param = d;
          io = e;
          rng = f;
        })
      (tup6 bool bool bool bool bool bool))

let prop_join_semilattice =
  QCheck.Test.make ~count:500
    ~name:"join: commutative, associative, idempotent, pure is its unit"
    QCheck.(triple gen_effects gen_effects gen_effects)
    (fun (a, b, c) ->
      let ( + ) = Effects.join in
      Effects.equal (a + b) (b + a)
      && Effects.equal ((a + b) + c) (a + (b + c))
      && Effects.equal (a + a) a
      && Effects.equal (Effects.pure + a) a)

let test_effects_to_string () =
  Alcotest.(check string) "pure" "pure" (Effects.to_string Effects.pure);
  Alcotest.(check string) "tags in a fixed order, +-joined"
    "writes-global+reads-global+io"
    (Effects.to_string
       { Effects.pure with io = true; reads_global = true; writes_global = true });
  Alcotest.(check string) "ambient rng" "ambient-rng"
    (Effects.to_string { Effects.pure with rng = true })

(* --- effect-signature regression on the real Randomness library ----- *)

let test_randomness_signatures () =
  if not (Sys.file_exists randomness_root) then
    Alcotest.fail "randomness build tree missing (dep should provide it)";
  let entries =
    [
      "Randomness.Rng.create";
      "Randomness.Rng.split";
      "Randomness.Rng.float";
      "Randomness.Sampler.exponential";
    ]
  in
  let o =
    Domcheck.analyze ~source_root:randomness_root ~entries
      [ randomness_root ]
  in
  Alcotest.(check (list string)) "every entry resolves" []
    o.unresolved_entries;
  Alcotest.(check (list string))
    "the randomness library owns no global state" []
    (List.map (fun (g : Domcheck.global) -> g.g_pretty) o.globals);
  List.iter
    (fun name ->
      let e = find_entry o name in
      Alcotest.(check bool)
        (name ^ " threads its state (writes-param)")
        true e.e_eff.Effects.writes_param;
      Alcotest.(check bool)
        (name ^ " never draws ambient RNG")
        false e.e_eff.Effects.rng;
      Alcotest.(check bool)
        (name ^ " touches no global")
        false
        (e.e_eff.Effects.writes_global || e.e_eff.Effects.reads_global);
      Alcotest.(check bool) (name ^ " is not rng-ambient") false e.e_rng_ambient)
    entries

(* --- effect report shape --------------------------------------------- *)

let test_report_json () =
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  match Domcheck.report_json o with
  | Stochobs.Json.Obj fields ->
      let has k = List.mem_assoc k fields in
      List.iter
        (fun k -> Alcotest.(check bool) ("report has " ^ k) true (has k))
        [ "version"; "units"; "functions"; "globals"; "entries"; "summary" ];
      let roundtrip = Stochobs.Json.to_string (Domcheck.report_json o) in
      Alcotest.(check bool) "serialises non-trivially" true
        (String.length roundtrip > 100)
  | _ -> Alcotest.fail "report must be a JSON object"

(* --- CLI golden output: stdout, stderr and exit code, byte for byte --- *)

let exe = Filename.concat ".." "bin/stochdomcheck.exe"
let domcheck ?subst args = Golden_cli.run ?subst exe args
let fixture_ctx = [ "--context"; "lib:fixture" ]

let unresolved_defaults =
  String.concat ""
    (List.map
       (Printf.sprintf
          "stochdomcheck: warning: entry `%s` matched no analysed function\n")
       Domcheck.default_entries)

let glob_mut_lines =
  {|glob_mut.ml:8:4: warning GLOBAL_MUT_STATE: top-level mutable value `Glob_mut.table` (hashtable) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
glob_mut.ml:9:4: warning GLOBAL_MUT_STATE: top-level mutable value `Glob_mut.total` (ref) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
glob_mut.ml:10:4: warning GLOBAL_MUT_STATE: top-level mutable value `Glob_mut.scratch` (buffer) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
glob_mut.ml:11:4: warning GLOBAL_MUT_STATE: top-level mutable value `Glob_mut.hits` (mutable record) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
|}

let pass_arg_line =
  {|pass_arg.ml:7:4: warning GLOBAL_MUT_STATE: top-level mutable value `Pass_arg.shared` (array) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
|}

let rng_amb_line =
  {|rng_amb.ml:6:4: error RNG_AMBIENT: parallel-candidate entry `Rng_amb.run` reaches RNG state that is not threaded as a parameter (stdlib Random); per-domain determinism needs an explicit split `Rng.t` per worker
|}

let store_lines =
  {|store_a.ml:4:4: warning GLOBAL_MUT_STATE: top-level mutable value `Store_a.registry` (hashtable) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`
store_b.ml:6:4: warning DOMAIN_UNSAFE_REACH: parallel-candidate entry `Store_b.run` transitively writes shared mutable state: Store_a.registry (via Store_b.record -> Store_a.put) — make these per-domain (with a merge step) before fanning out with Domain.spawn
|}

let rng_glob_line =
  {|rng_glob.ml:5:4: error RNG_AMBIENT: global RNG state `Rng_glob.shared` (Randomness.Rng.t) is ambient; thread an explicit `Randomness.Rng.t` (split per domain) instead
|}

let exports_line =
  {|exports.mli:6:0: warning UNUSED_EXPORT: `Exports.unused` is exported but no other unit mentions it; delete it, or drop it from the .mli if its own module uses it
|}

let all_fixture_lines =
  exports_line ^ glob_mut_lines ^ pass_arg_line ^ rng_amb_line ^ rng_glob_line
  ^ store_lines

let store_args =
  fixture_ctx
  @ [ "--entry"; "Store_b.run"; "--source-root"; fixture_root;
      fixture_cmt "store_a"; fixture_cmt "store_b" ]

let usage_text =
  {|usage: stochdomcheck [--json] [--report FILE] [--baseline FILE]
                     [--update-baseline] [--entry PATH]...
                     [--source-root DIR] [--context CTX] [--quiet]
                     [CMT_ROOT...]
|}

let test_golden_clean () =
  Golden_cli.check "clean unit" ~code:0
    ~out:
      "stochdomcheck: 1 units, 3 functions, 0 globals (0 suppressed \
       inline), 0 findings (0 errors, 0 warnings), 0 baselined\n"
    ~err:unresolved_defaults
    (domcheck (fixture_ctx @ [ fixture_cmt "rng_amb" ]))

(* Entries keep their declaration order: the warnings for the ones that
   match nothing come out as the flags were given. *)
let test_golden_entry_order () =
  Golden_cli.check "unresolved entries in declaration order" ~code:0
    ~out:
      "stochdomcheck: 1 units, 3 functions, 0 globals (0 suppressed \
       inline), 0 findings (0 errors, 0 warnings), 0 baselined\n"
    ~err:
      "stochdomcheck: warning: entry `Zeta.run` matched no analysed function\n\
       stochdomcheck: warning: entry `Alpha.run` matched no analysed function\n\
       stochdomcheck: warning: entry `Mid.run` matched no analysed function\n"
    (domcheck
       (fixture_ctx
       @ [ "--entry"; "Zeta.run"; "--entry"; "Alpha.run"; "--entry"; "Mid.run";
           fixture_cmt "rng_amb" ]))

let test_golden_findings () =
  let args =
    fixture_ctx
    @ [ "--entry"; "Store_b.run"; "--entry"; "Rng_amb.run"; fixture_root ]
  in
  Golden_cli.check "findings on every fixture" ~code:1
    ~out:
      (all_fixture_lines
     ^ "stochdomcheck: 10 units, 37 functions, 9 globals (1 suppressed \
        inline), 10 findings (2 errors, 8 warnings), 0 baselined\n")
    (domcheck args);
  Golden_cli.check "--quiet drops the summary" ~code:1 ~out:all_fixture_lines
    (domcheck ("--quiet" :: args))

let test_golden_json () =
  Golden_cli.check "--json envelope" ~code:1
    ~out:
      {|{
  "version": 1,
  "units": 2,
  "functions": 6,
  "findings": [
    {
      "file": "store_a.ml",
      "line": 4,
      "col": 4,
      "rule": "GLOBAL_MUT_STATE",
      "severity": "warning",
      "message": "top-level mutable value `Store_a.registry` (hashtable) is shared process state; make it per-domain, pass it explicitly, or annotate the intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason *)`"
    },
    {
      "file": "store_b.ml",
      "line": 6,
      "col": 4,
      "rule": "DOMAIN_UNSAFE_REACH",
      "severity": "warning",
      "message": "parallel-candidate entry `Store_b.run` transitively writes shared mutable state: Store_a.registry (via Store_b.record -> Store_a.put) — make these per-domain (with a merge step) before fanning out with Domain.spawn"
    }
  ],
  "suppressed": 0,
  "baselined": 0,
  "load_errors": []
}
|}
    (domcheck ("--json" :: store_args))

let test_golden_report () =
  let path = Filename.temp_file "stochdomcheck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Golden_cli.check "--report FILE" ~code:1
        ~out:
          (store_lines
         ^ "stochdomcheck: 2 units, 6 functions, 1 globals (0 suppressed \
            inline), 2 findings (0 errors, 2 warnings), 0 baselined\n")
        (domcheck ([ "--report"; path ] @ store_args));
      let o =
        Domcheck.analyze ~context:(fun _ -> Rules.Lib "fixture")
          ~source_root:fixture_root ~entries:[ "Store_b.run" ]
          [ fixture_cmt "store_a"; fixture_cmt "store_b" ]
      in
      Alcotest.(check string) "report file is the effect report"
        (Stochobs.Json.to_string (Domcheck.report_json o) ^ "\n")
        (Golden_cli.read_file path))

let test_golden_update_baseline () =
  let path = Filename.temp_file "stochdomcheck" ".json" in
  Sys.remove path;
  let args = fixture_ctx @ [ "--entry"; "Store_b.run"; fixture_root ] in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Golden_cli.check "--update-baseline to a new file" ~code:0
        ~out:"stochdomcheck: wrote BASELINE (9 findings grandfathered)\n"
        (domcheck ~subst:[ (path, "BASELINE") ]
           ([ "--baseline"; path; "--update-baseline" ] @ args));
      Alcotest.(check string) "baseline file"
        {|{
  "version": 1,
  "entries": [
    {
      "file": "exports.mli",
      "rule": "UNUSED_EXPORT",
      "count": 1
    },
    {
      "file": "glob_mut.ml",
      "rule": "GLOBAL_MUT_STATE",
      "count": 4
    },
    {
      "file": "pass_arg.ml",
      "rule": "GLOBAL_MUT_STATE",
      "count": 1
    },
    {
      "file": "rng_glob.ml",
      "rule": "RNG_AMBIENT",
      "count": 1
    },
    {
      "file": "store_a.ml",
      "rule": "GLOBAL_MUT_STATE",
      "count": 1
    },
    {
      "file": "store_b.ml",
      "rule": "DOMAIN_UNSAFE_REACH",
      "count": 1
    }
  ]
}
|}
        (Golden_cli.read_file path);
      Golden_cli.check "the written baseline passes" ~code:0
        ~out:
          "stochdomcheck: 10 units, 37 functions, 9 globals (1 suppressed \
           inline), 0 findings (0 errors, 0 warnings), 9 baselined\n"
        (domcheck ([ "--baseline"; path ] @ args)))

let test_golden_exceeded () =
  let path = Filename.temp_file "stochdomcheck" ".json" in
  Golden_cli.write_file path
    {|{"version": 1, "entries": [{"file": "glob_mut.ml", "rule": "GLOBAL_MUT_STATE", "count": 1}]}|};
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Golden_cli.check "exceeded baseline group" ~code:1
        ~out:
          (exports_line ^ glob_mut_lines ^ pass_arg_line ^ rng_glob_line
         ^ store_lines
         ^ "glob_mut.ml: GLOBAL_MUT_STATE count 4 exceeds the baselined 1 — \
            the whole group is shown above; fix the new site or refresh the \
            baseline\n\
            stochdomcheck: 10 units, 37 functions, 9 globals (1 suppressed \
            inline), 9 findings (1 errors, 8 warnings), 0 baselined\n")
        (domcheck
           ([ "--baseline"; path ] @ fixture_ctx
           @ [ "--entry"; "Store_b.run"; fixture_root ])))

let test_golden_usage () =
  Golden_cli.check "--help" ~code:2 ~err:usage_text (domcheck [ "--help" ]);
  Golden_cli.check "unknown option" ~code:2
    ~err:("stochdomcheck: unknown option --bogus\n" ^ usage_text)
    (domcheck [ "--bogus" ])

let test_golden_empty_root () =
  let dir = Golden_cli.temp_dir "stochdomcheck" in
  Fun.protect
    ~finally:(fun () -> Golden_cli.remove_tree dir)
    (fun () ->
      Golden_cli.check "no .cmt under the root" ~code:2
        ~err:
          "stochdomcheck: no .cmt files under ROOT — build with -bin-annot \
           first (dune does by default)\n"
        (domcheck ~subst:[ (dir, "ROOT") ] [ dir ]))

(* A .cmt that fails to load is named on stderr and makes the run exit
   2, even though the unit beside it loads and has findings. *)
let test_golden_load_error () =
  let dir = Golden_cli.temp_dir "stochdomcheck" in
  Golden_cli.write_file
    (Filename.concat dir "glob_mut.cmt")
    (Golden_cli.read_file (fixture_cmt "glob_mut"));
  let junk = Filename.concat dir "junk.cmt" in
  Golden_cli.write_file junk "junk\n";
  Fun.protect
    ~finally:(fun () -> Golden_cli.remove_tree dir)
    (fun () ->
      let r =
        domcheck ~subst:[ (dir, "ROOT") ]
          ("--quiet" :: fixture_ctx @ [ "--entry"; "Glob_mut.bump"; dir ])
      in
      Alcotest.(check int) "exit code" 2 r.code;
      Alcotest.(check bool) "stderr names the unloadable file" true
        (String.starts_with ~prefix:"stochdomcheck: ROOT/junk.cmt: cannot load: "
           r.err
        && String.ends_with ~suffix:"\n" r.err
        && List.length (String.split_on_char '\n' r.err) = 2);
      let update =
        domcheck
          ([ "--baseline"; Filename.concat dir "base.json"; "--update-baseline" ]
          @ fixture_ctx @ [ dir ])
      in
      Alcotest.(check int) "exit code under --update-baseline" 2 update.code)

let () =
  Alcotest.run "domcheck"
    [
      ( "global-mut-state",
        [
          Alcotest.test_case "inventory + suppression" `Quick test_glob_mut;
          Alcotest.test_case "writer attribution" `Quick
            test_writer_attribution;
          Alcotest.test_case "arguments handed to callees" `Quick
            test_handed_arguments;
        ] );
      ( "domain-unsafe-reach",
        [
          Alcotest.test_case "cross-module chain" `Quick
            test_cross_module_reach;
          Alcotest.test_case "non-entries stay quiet" `Quick
            test_unlisted_entry_not_flagged;
        ] );
      ( "rng-ambient",
        [ Alcotest.test_case "stdlib + global generator" `Quick test_rng_ambient ] );
      ( "baseline",
        [ Alcotest.test_case "suppress and grandfather" `Quick test_baseline_filter ] );
      ( "unused-export",
        [
          Alcotest.test_case "unmentioned, test-only, seam" `Quick
            test_unused_export;
          Alcotest.test_case "module aliases are mentions" `Quick
            test_alias_mentions;
          Alcotest.test_case "the marker needs a test caller" `Quick
            test_marker_needs_a_test_caller;
          Alcotest.test_case "only library interfaces" `Quick
            test_only_lib_interfaces;
          Alcotest.test_case "same-named units" `Quick test_same_name_units;
        ] );
      ( "effects",
        [
          Alcotest.test_case "builtin classification" `Quick test_classify;
          QCheck_alcotest.to_alcotest prop_join_semilattice;
          Alcotest.test_case "to_string" `Quick test_effects_to_string;
        ] );
      ( "randomness-regression",
        [
          Alcotest.test_case "entry signatures stay threaded" `Quick
            test_randomness_signatures;
        ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_report_json ] );
      ( "cli-golden",
        [
          Alcotest.test_case "clean" `Quick test_golden_clean;
          Alcotest.test_case "entry order" `Quick test_golden_entry_order;
          Alcotest.test_case "findings and --quiet" `Quick
            test_golden_findings;
          Alcotest.test_case "--json" `Quick test_golden_json;
          Alcotest.test_case "--report FILE" `Quick test_golden_report;
          Alcotest.test_case "--update-baseline" `Quick
            test_golden_update_baseline;
          Alcotest.test_case "exceeded baseline" `Quick test_golden_exceeded;
          Alcotest.test_case "usage errors" `Quick test_golden_usage;
          Alcotest.test_case "empty root" `Quick test_golden_empty_root;
          Alcotest.test_case "load error exits 2" `Quick
            test_golden_load_error;
        ] );
    ]
