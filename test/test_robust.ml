(* Deterministic unit tests for the robustness subsystem: the
   Dist_check report contents, the typed failure taxonomy, the
   cascade's degradation bookkeeping, and the validation messages of
   the mixture/empirical constructors. *)

module Dist = Distributions.Dist
module Check = Robust.Dist_check
module Solver = Robust.Solver

let cost = Stochastic_core.Cost_model.reservation_only

let quick = Solver.quick_budget

(* ------------------------------ checks ---------------------------- *)

(* Every registry law (Table 1 and the extras) and two [Dist.scale]d
   laws, one on bounded support, pass with no warning. *)
let test_check_accepts_table1 () =
  let scaled =
    List.map
      (fun d -> (d.Dist.name, d))
      [
        Dist.scale 0.5 Distributions.Uniform_dist.default;
        Dist.scale 3.0 Distributions.Lognormal.default;
      ]
  in
  List.iter
    (fun (name, d) ->
      let r = Check.run d in
      Alcotest.(check bool)
        (Printf.sprintf "%s valid" name)
        true (Check.is_valid r);
      Alcotest.(check int)
        (Printf.sprintf "%s warnings" name)
        0
        (List.length (Check.warnings r));
      Alcotest.(check bool)
        (Printf.sprintf "%s probed" name)
        true (r.Check.probes > 0))
    (Distributions.Registry.all @ scaled)

let broken_cdf =
  let d = Distributions.Exponential.default in
  {
    d with
    Dist.name = "BrokenCdf";
    cdf = (fun t -> if t > 2.0 then nan else d.Dist.cdf t);
  }

let test_check_rejects_nan_cdf () =
  let r = Check.run broken_cdf in
  Alcotest.(check bool) "invalid" false (Check.is_valid r);
  Alcotest.(check bool) "names a cdf issue" true
    (List.exists
       (fun (i : Check.issue) ->
         String.length i.id >= 3 && String.sub i.id 0 3 = "cdf")
       (Check.fatal r))

let test_check_rejects_negative_pdf () =
  let d = Distributions.Exponential.default in
  let bad =
    { d with Dist.name = "NegPdf"; pdf = (fun t -> -.d.Dist.pdf t) }
  in
  let r = Check.run bad in
  Alcotest.(check bool) "invalid" false (Check.is_valid r)

(* A pdf that is NaN on a window narrower than the probe grid's spacing:
   no pdf probe lands in it, but the quadrature between the knots 0.5
   and 0.529 does, and a non-finite integral must surface as a warning
   rather than silently skip the mass checks. *)
let test_check_warns_on_nonfinite_integral () =
  let d = Distributions.Uniform_dist.make ~a:0.0 ~b:1.0 in
  let holed =
    {
      d with
      Dist.name = "HoledUniform";
      pdf = (fun t -> if t > 0.501 && t < 0.509 then nan else d.Dist.pdf t);
    }
  in
  let r = Check.run holed in
  Alcotest.(check string) "summary" "HoledUniform: ok (40 probes, 1 warning)"
    (Check.summary r);
  Alcotest.(check (list string)) "warning ids" [ "mass-check-skipped" ]
    (List.map (fun (i : Check.issue) -> i.id) (Check.warnings r))

(* ------------------------------ solver ---------------------------- *)

let test_primary_tier_on_exponential () =
  match Solver.solve ~budget:quick cost Distributions.Exponential.default with
  | Error e -> Alcotest.failf "solve failed: %s" (Solver.error_to_string e)
  | Ok sol ->
      Alcotest.(check bool) "brute force answered" true
        (sol.Solver.diagnostics.Solver.chosen = Solver.Brute_force);
      Alcotest.(check bool) "not degraded" false (Solver.degraded sol);
      Alcotest.(check bool) "validated" true
        (sol.Solver.diagnostics.Solver.validation <> None);
      Alcotest.(check bool) "normalized sane" true
        (sol.Solver.normalized >= 1.0 -. 1e-6
        && sol.Solver.normalized < 4.0)

let test_cascade_degrades_on_infinite_variance () =
  match Solver.solve ~budget:quick cost Distributions.Frechet.heavy_tail with
  | Error e -> Alcotest.failf "solve failed: %s" (Solver.error_to_string e)
  | Ok sol ->
      Alcotest.(check bool) "degraded" true (Solver.degraded sol);
      Alcotest.(check bool) "DP answered" true
        (sol.Solver.diagnostics.Solver.chosen = Solver.Dp_equal_probability);
      Alcotest.(check bool) "brute force rejection recorded" true
        (List.exists
           (fun r -> r.Solver.tier = Solver.Brute_force)
           sol.Solver.diagnostics.Solver.rejected)

let test_invalid_distribution_refused () =
  match Solver.solve ~budget:quick cost broken_cdf with
  | Error (Solver.Invalid_distribution r) ->
      Alcotest.(check bool) "report carries fatals" true (Check.fatal r <> [])
  | Error e ->
      Alcotest.failf "expected Invalid_distribution, got %s"
        (Solver.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_distribution, got Ok"

let test_invalid_budget_refused () =
  let bad = Solver.override ~m:0 quick in
  match Solver.solve ~budget:bad cost Distributions.Exponential.default with
  | Error (Solver.Invalid_parameter { name; _ }) ->
      Alcotest.(check string) "names the field" "bf_candidates" name
  | Error e ->
      Alcotest.failf "expected Invalid_parameter, got %s"
        (Solver.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_parameter, got Ok"

(* Every front end builds its budget with [override]: an absent field
   keeps the base's, a present one wins. The third base has five
   distinct fields, so a field read from the wrong slot shows. *)
let test_override () =
  let fields (b : Solver.budget) =
    [|
      float_of_int b.bf_candidates;
      float_of_int b.mc_samples;
      float_of_int b.dp_points;
      float_of_int b.max_evaluations;
      b.max_seconds;
    |]
  in
  let given = [| 7.0; 8.0; 9.0; 10.0; 0.25 |] in
  let one_field =
    [|
      (fun b -> Solver.override ~m:7 b);
      (fun b -> Solver.override ~n:8 b);
      (fun b -> Solver.override ~disc_n:9 b);
      (fun b -> Solver.override ~max_evaluations:10 b);
      (fun b -> Solver.override ~max_seconds:0.25 b);
    |]
  in
  let same name expected got =
    Alcotest.(check (array (float 0.0))) name expected got
  in
  List.iter
    (fun base ->
      same "nothing given keeps the base" (fields base)
        (fields (Solver.override base));
      Array.iteri
        (fun i override ->
          same
            (Printf.sprintf "field %d given wins, the rest keep the base" i)
            (Array.mapi (fun j v -> if j = i then given.(i) else v) (fields base))
            (fields (override base)))
        one_field;
      same "every field given wins" given
        (fields
           (Solver.override ~m:7 ~n:8 ~disc_n:9 ~max_evaluations:10
              ~max_seconds:0.25 base)))
    [
      Solver.default_budget;
      Solver.quick_budget;
      Solver.override ~m:11 ~n:12 ~disc_n:13 ~max_evaluations:14
        ~max_seconds:15.0 Solver.quick_budget;
    ]

(* The t1 scan reads its budget clock on the first candidate and then
   once per 64, while it charges evaluations one by one. The law is
   Exp(1) with a density that underflows everywhere, so no candidate
   is valid and a scan cut short ends in Budget_exhausted. A fake clock
   that advances 1 s per read, under a 10 s budget, puts the
   brute-force deadline (70%) at 7 s: the read at candidate
   1 + 64 * 7 = 449 is the first past it, so the scan stops with 448 of
   5,000 candidates charged (a read per candidate would stop it after
   7). An evaluation cap of 100 stops it at the 101st charge whatever
   the clock, and with neither limit the scan runs to its end. *)
let test_budget_guard_cadence () =
  let d = { Distributions.Exponential.default with Dist.pdf = (fun _ -> 0.0) } in
  let budget = Solver.override ~max_seconds:10.0 Solver.default_budget in
  let solve ~clock budget =
    Solver.solve ~clock ~budget ~tiers:[ Solver.Brute_force ] ~validate:false
      cost d
  in
  let exhausted name ~clock budget expected =
    match solve ~clock budget with
    | Error (Solver.Budget_exhausted { evaluations; _ }) ->
        Alcotest.(check int) name expected evaluations
    | Error e -> Alcotest.failf "%s: %s" name (Solver.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: no candidate should be valid" name
  in
  exhausted "deadline: 7 strides of 64 candidates"
    ~clock:(Stochobs.Clock.fake ~step:1.0 ())
    budget (7 * 64);
  exhausted "evaluation cap: one charge per candidate"
    ~clock:(Stochobs.Clock.fake ~step:0.0 ())
    (Solver.override ~max_evaluations:100 budget)
    101;
  match solve ~clock:(Stochobs.Clock.fake ~step:0.0 ()) budget with
  | Error (Solver.Non_convergent _) -> ()
  | Error e -> Alcotest.failf "full scan: %s" (Solver.error_to_string e)
  | Ok _ -> Alcotest.fail "full scan: no candidate should be valid"

let test_empty_tiers_refused () =
  match
    Solver.solve ~budget:quick ~tiers:[] cost
      Distributions.Exponential.default
  with
  | Error (Solver.Invalid_parameter { name; _ }) ->
      Alcotest.(check string) "names tiers" "tiers" name
  | _ -> Alcotest.fail "expected Invalid_parameter on empty cascade"

let test_exit_codes_distinct () =
  let codes =
    [
      Solver.exit_code (Solver.Invalid_distribution (Check.run broken_cdf));
      Solver.exit_code (Solver.Invalid_parameter { name = "x"; detail = "" });
      Solver.exit_code (Solver.Non_convergent { stage = "s"; detail = "" });
      Solver.exit_code
        (Solver.Budget_exhausted { stage = "s"; evaluations = 0; elapsed = 0. });
    ]
  in
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare codes));
  Alcotest.(check bool) "none collides with cmdliner's 0/1/2/3" true
    (List.for_all (fun c -> c > 3) codes)

(* The default (Eq. (4) series) and the Monte-Carlo scan rank the same
   t1 grid, and both solutions report [Expected_cost.exact] of the
   vetted sequence, which the series score equals: the default's
   normalized cost is the grid minimum, so never above the MC pick. *)
let test_exact_never_worse () =
  let models =
    [
      ("reservation_only", Stochastic_core.Cost_model.reservation_only);
      ("neuro_hpc", Stochastic_core.Cost_model.neuro_hpc);
    ]
  in
  let normalized label r =
    match r with
    | Ok sol -> sol.Solver.normalized
    | Error e -> Alcotest.failf "%s: %s" label (Solver.error_to_string e)
  in
  List.iter
    (fun (law, d) ->
      List.iter
        (fun (model, m) ->
          List.iter
            (fun (budget_name, budget) ->
              let label = Printf.sprintf "%s/%s %s" law model budget_name in
              let exact = normalized label (Solver.solve ~budget m d) in
              let mc =
                normalized (label ^ " MC") (Solver.solve ~budget ~exact:false m d)
              in
              if not (exact <= mc *. (1.0 +. 1e-12)) then
                Alcotest.failf "%s: default normalized %.17g > Monte-Carlo %.17g"
                  label exact mc)
            [ ("defaults", Solver.default_budget); ("quick_budget", quick) ])
        models)
    Distributions.Table1.all

(* --------------------- constructor validation --------------------- *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let expect_invalid_arg label substring f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument msg ->
      if not (contains msg substring) then
        Alcotest.failf "%s: message %S does not mention %S" label msg substring

let test_mixture_weight_validation () =
  let d = Distributions.Exponential.default in
  expect_invalid_arg "negative weight" "weight 1" (fun () ->
      Distributions.Mixture.make [ (0.5, d); (-0.25, d) ]);
  expect_invalid_arg "nan weight" "weight 0" (fun () ->
      Distributions.Mixture.make [ (nan, d); (1.0, d) ]);
  expect_invalid_arg "zero sum" "sum" (fun () ->
      Distributions.Mixture.make [ (0.0, d); (0.0, d) ])

let test_empirical_edge_cases () =
  expect_invalid_arg "empty" "empty" (fun () ->
      Distributions.Empirical.make [||]);
  expect_invalid_arg "single point" "point mass" (fun () ->
      Distributions.Empirical.make [| 3.0 |]);
  expect_invalid_arg "all tied" "tied" (fun () ->
      Distributions.Empirical.make [| 2.0; 2.0; 2.0; 2.0 |]);
  expect_invalid_arg "nan sample" "sample 1" (fun () ->
      Distributions.Empirical.make [| 1.0; nan; 2.0 |]);
  (* Partial ties are legal and must yield a usable density. *)
  let d = Distributions.Empirical.make [| 1.0; 2.0; 2.0; 2.0; 3.0 |] in
  let r = Check.run d in
  Alcotest.(check bool) "tied empirical passes the self-check" true
    (Check.is_valid r)

let () =
  Alcotest.run "robust"
    [
      ( "dist_check",
        [
          Alcotest.test_case "accepts Table 1" `Quick test_check_accepts_table1;
          Alcotest.test_case "rejects NaN cdf" `Quick test_check_rejects_nan_cdf;
          Alcotest.test_case "rejects negative pdf" `Quick
            test_check_rejects_negative_pdf;
          Alcotest.test_case "warns on a non-finite pdf integral" `Quick
            test_check_warns_on_nonfinite_integral;
        ] );
      ( "solver",
        [
          Alcotest.test_case "primary tier on Exp(1)" `Quick
            test_primary_tier_on_exponential;
          Alcotest.test_case "degrades on infinite variance" `Quick
            test_cascade_degrades_on_infinite_variance;
          Alcotest.test_case "refuses invalid distribution" `Quick
            test_invalid_distribution_refused;
          Alcotest.test_case "refuses invalid budget" `Quick
            test_invalid_budget_refused;
          Alcotest.test_case "budget override" `Quick test_override;
          Alcotest.test_case "budget guard cadence" `Quick
            test_budget_guard_cadence;
          Alcotest.test_case "refuses empty cascade" `Quick
            test_empty_tiers_refused;
          Alcotest.test_case "exit codes distinct" `Quick
            test_exit_codes_distinct;
          Alcotest.test_case "exact default never worse than MC" `Quick
            test_exact_never_worse;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "mixture weights" `Quick
            test_mixture_weight_validation;
          Alcotest.test_case "empirical edge cases" `Quick
            test_empirical_edge_cases;
        ] );
    ]
