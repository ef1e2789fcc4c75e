(* Integration tests: each paper artefact runs end to end at the quick
   configuration and satisfies its qualitative sanity checks. *)

let cfg = Experiments.Config.quick

let assert_sanity checks =
  List.iter
    (fun (label, ok) -> if not ok then Alcotest.failf "sanity failed: %s" label)
    checks

let test_config () =
  Alcotest.(check int) "paper m" 5000 Experiments.Config.paper.Experiments.Config.m;
  Alcotest.(check int) "paper n" 1000
    Experiments.Config.paper.Experiments.Config.n_mc;
  let c = Experiments.Config.with_seed 7 cfg in
  Alcotest.(check int) "with_seed" 7 c.Experiments.Config.seed;
  (* Label-derived streams are deterministic and label-sensitive. *)
  let a = Experiments.Config.rng_for cfg "x" in
  let b = Experiments.Config.rng_for cfg "x" in
  let c2 = Experiments.Config.rng_for cfg "y" in
  Alcotest.(check bool) "same label, same stream" true
    (Randomness.Rng.bits64 a = Randomness.Rng.bits64 b);
  Alcotest.(check bool) "different label, different stream" true
    (Randomness.Rng.bits64 (Experiments.Config.rng_for cfg "x")
    <> Randomness.Rng.bits64 c2)

let contains_substring haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_table2 () =
  let t = Experiments.Table2.run ~cfg () in
  Alcotest.(check int) "nine rows" 9 (List.length t.Experiments.Table2.rows);
  Alcotest.(check int) "seven strategies" 7
    (Array.length t.Experiments.Table2.strategy_names);
  assert_sanity (Experiments.Table2.sanity t);
  (* The rendering mentions every distribution. *)
  let s = Experiments.Table2.to_string t in
  List.iter
    (fun (name, _) ->
      if not (contains_substring s name) then
        Alcotest.failf "rendering misses %s" name)
    Distributions.Table1.all

let test_table3 () =
  let t = Experiments.Table3.run ~cfg () in
  Alcotest.(check int) "nine rows" 9 (List.length t);
  assert_sanity (Experiments.Table3.sanity t);
  (* Uniform's best must be b = 20 with cost 4/3. *)
  let u = List.find (fun r -> r.Experiments.Table3.dist_name = "Uniform") t in
  Alcotest.(check (float 0.05)) "uniform t1 = 20" 20.0
    u.Experiments.Table3.best.Experiments.Table3.t1

let test_table4 () =
  let t = Experiments.Table4.run ~cfg ~ns:[| 10; 50; 200 |] () in
  Alcotest.(check int) "nine rows" 9 (List.length t.Experiments.Table4.rows);
  (* Weibull at n = 10 must be much worse than at n = 200 (the paper's
     convergence story). *)
  let _, et, _ =
    List.find (fun (n, _, _) -> n = "Weibull") t.Experiments.Table4.rows
  in
  Alcotest.(check bool) "weibull improves with n" true (et.(0) > et.(2))

let test_fig1 () =
  let t = Experiments.Fig1.run ~cfg ~runs:3000 () in
  Alcotest.(check int) "two applications" 2 (List.length t);
  assert_sanity (Experiments.Fig1.sanity t)

let test_fig2 () =
  let t = Experiments.Fig2.run ~cfg () in
  assert_sanity (Experiments.Fig2.sanity t);
  Alcotest.(check int) "twenty groups" 20
    (Array.length t.Experiments.Fig2.binned.Platform.Hpc_queue.centers)

let test_fig3 () =
  let t = Experiments.Fig3.run ~cfg ~points:80 () in
  Alcotest.(check int) "nine panels" 9 (List.length t);
  assert_sanity (Experiments.Fig3.sanity t);
  (* The exponential panel shows the Table 3 gaps. *)
  let e = List.find (fun p -> p.Experiments.Fig3.dist_name = "Exponential") t in
  Alcotest.(check bool) "exponential panel has gaps" true
    (Array.exists (fun (_, c) -> c = None) e.Experiments.Fig3.points)

let test_fig4 () =
  let t = Experiments.Fig4.run ~cfg ~factors:[| 1.0; 4.0; 10.0 |] () in
  Alcotest.(check int) "three sweep points" 3
    (List.length t.Experiments.Fig4.points);
  assert_sanity (Experiments.Fig4.sanity t)

let test_s1 () =
  let t = Experiments.Exp_s1.run ~cfg () in
  assert_sanity (Experiments.Exp_s1.sanity t)

(* The registry: one entry per experiment, each a valid command name,
   each running its module at the quick configuration unchanged. *)

module R = Experiments.Registry

let registry_entry name =
  match List.find_opt (fun e -> e.R.name = name) R.all with
  | Some e -> e
  | None -> Alcotest.failf "registry has no %s entry" name

let test_registry_names () =
  let names = List.map (fun e -> e.R.name) R.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let command_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  List.iter
    (fun n ->
      let valid =
        n <> "" && n.[0] >= 'a' && n.[0] <= 'z' && String.for_all command_char n
      in
      if not valid then Alcotest.failf "%S is not a valid command name" n)
    names

let check_outcome ~text ~sanity name =
  let o = (registry_entry name).R.run ~quick:true ~log:Stochobs.Log.null in
  Alcotest.(check string) (name ^ " text") text o.R.text;
  Alcotest.(check (list (pair string bool))) (name ^ " sanity") sanity o.R.sanity

let test_registry_runs_module () =
  let t = Experiments.Exp_s1.run ~cfg () in
  check_outcome "s1" ~text:(Experiments.Exp_s1.to_string t)
    ~sanity:(Experiments.Exp_s1.sanity t);
  let t = Experiments.Table3.run ~cfg () in
  check_outcome "table3" ~text:(Experiments.Table3.to_string t)
    ~sanity:(Experiments.Table3.sanity t)

let test_registry_table4 () =
  let t = Experiments.Table4.run ~cfg () in
  let t2 = Experiments.Table2.run ~cfg () in
  let brute_force name =
    let row =
      List.find (fun r -> r.Experiments.Table2.dist_name = name)
        t2.Experiments.Table2.rows
    in
    row.Experiments.Table2.values.(0)
  in
  check_outcome "table4" ~text:(Experiments.Table4.to_string t)
    ~sanity:(Experiments.Table4.sanity t ~brute_force)

(* Byte-identity gate: sections exactly as bench prints them, committed
   under fixtures/experiments. The two cluster simulator experiments are
   pinned at the quick configuration (a change to attempt accounting,
   the engine or the fault model that moves any number fails here); the
   Sect. 5 artefacts built on the Eq. (13) scorer and the Theorem 5 DP
   at Config.paper, the scale the paper's tables are printed at. *)
let test_rendered_fixture ~quick name () =
  let e = registry_entry name in
  let expected =
    In_channel.with_open_bin
      (Filename.concat "fixtures/experiments"
         (name ^ if quick then ".quick.txt" else ".paper.txt"))
      In_channel.input_all
  in
  Alcotest.(check string) name expected
    (R.render e (e.R.run ~quick ~log:Stochobs.Log.null))

let () =
  Alcotest.run "experiments"
    [
      ( "integration",
        [
          Alcotest.test_case "config" `Quick test_config;
          Alcotest.test_case "table2" `Slow test_table2;
          Alcotest.test_case "table3" `Slow test_table3;
          Alcotest.test_case "table4" `Slow test_table4;
          Alcotest.test_case "fig1" `Quick test_fig1;
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "fig3" `Slow test_fig3;
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "s1" `Quick test_s1;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "s1 and table3" `Slow test_registry_runs_module;
          Alcotest.test_case "table4 sanity" `Slow test_registry_table4;
        ] );
      ( "fixtures",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " quick text") `Quick
              (test_rendered_fixture ~quick:true name))
          [ "fault-tolerance"; "cluster-contention" ]
        @ List.map
            (fun name ->
              Alcotest.test_case (name ^ " paper text") `Quick
                (test_rendered_fixture ~quick:false name))
            [ "table2"; "table3"; "table4"; "fig3"; "fig4" ] );
    ]
