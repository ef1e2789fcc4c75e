(* Pins the single-pass recurrence kernel ([Recurrence.score] and
   everything built on it) against [Recurrence_oracle], the three-walk
   code it replaced, with Int64.bits_of_float equality: every verdict,
   prefix, t1, tally and Eq. (4) cost, Brute_force's
   search/profile/cost_of_t1, Robust.Solver.solve,
   Exponential_opt.solve, and a random property over the registry,
   mixtures, empirical and bounded laws. Eq. (13) costs alone are held
   to a relative tolerance, [mc_rel] below. The scans stop at the
   first-reservation bound: their winners are the full oracle scan's,
   and their walked counts are derived from the oracle's per-candidate
   costs and the bound. *)

open Stochastic_core
module O = Recurrence_oracle
module Dist = Distributions.Dist
module Solver = Robust.Solver

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let bits_array a = String.concat "," (Array.to_list (Array.map bits a))

let stop_key = function
  | Recurrence.Unsupported_t1 t -> "Unsupported_t1 " ^ bits t
  | Density_underflow { t; survival } ->
      Printf.sprintf "Density_underflow %s %s" (bits t) (bits survival)
  | Non_finite { t_prev; next } ->
      Printf.sprintf "Non_finite %s %s" (bits t_prev) (bits next)
  | Non_increasing { t_prev; next } ->
      Printf.sprintf "Non_increasing %s %s" (bits t_prev) (bits next)
  | Too_long n -> Printf.sprintf "Too_long %d" n

(* An outcome: the verdict and prefix as a string, with the cost beside
   it, or the exception the computation raised. *)
type outcome = { key : string; cost : float option }

let outcome f =
  match f () with
  | Ok (prefix, cost) -> { key = "Ok [" ^ bits_array prefix ^ "]"; cost = Some cost }
  | Error s -> { key = "Error " ^ stop_key s; cost = None }
  | exception e -> { key = "raised " ^ Printexc.to_string e; cost = None }

(* The Eq. (13) scorer sums a reservation's covered samples as one
   segment read off compensated prefix sums; the oracle added them one
   by one. Under ReservationOnly (beta = 0) the costs are the same
   bits; under NeuroHPC they differ from the oracle's on 6% of the 18
   problems' valid candidates, by at most 4.2e-16 (1.9 eps) relative
   (CHANGES.md). Monte-Carlo costs are held to [mc_rel] = 4 eps, a
   margin of 2x. Eq. (4) costs stay bit for bit. *)
let mc_rel = 4.0 *. epsilon_float

let same_cost ~exact expected got =
  Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)
  || ((not exact) && Float.is_finite expected
     && Float.abs (got -. expected) <= mc_rel *. Float.abs expected)

let show o = match o.cost with None -> o.key | Some c -> o.key ^ " " ^ bits c

let same_outcome ~exact expected got =
  String.equal expected.key got.key
  &&
  match (expected.cost, got.cost) with
  | None, None -> true
  | Some e, Some g -> same_cost ~exact e g
  | _ -> false

(* A scoring as the kernel takes it and as the oracle computes it. *)
type scoring = { kernel : Expected_cost.scoring; oracle : Cost_model.t -> Dist.t -> Sequence.t -> float }

let series = { kernel = Expected_cost.Series; oracle = (fun m d seq -> O.exact m d seq) }

let sorted_sample s =
  { kernel = Expected_cost.sample (Array.copy s);
    oracle = (fun m _ seq -> O.mean_cost_sorted m seq s) }

let oracle_outcome scoring m d t1 =
  outcome (fun () ->
      match O.generate m d ~t1 with
      | Error s -> Error s
      | Ok prefix -> Ok (prefix, scoring.oracle m d (O.sequence m d ~t1)))

(* The kernel returns a scoring exception as a value; the oracle raised
   it. *)
let kernel_outcome score scoring t1 =
  outcome (fun () ->
      match score scoring.kernel ~t1 with
      | Ok (prefix, Ok cost) -> Ok (prefix, cost)
      | Ok (_, Error e) -> raise e
      | Error s -> Error s)

let models =
  [ ("reservation_only", Cost_model.reservation_only); ("neuro_hpc", Cost_model.neuro_hpc) ]

(* The 18 problems of the solve benchmark. *)
let problems =
  List.concat_map
    (fun (law, d) -> List.map (fun (model, m) -> (law ^ "/" ^ model, m, d)) models)
    Distributions.Table1.all

(* One fixed sample per law, sorted as the parent sorted it. *)
let fixed_sample d =
  let s = Dist.samples d (Randomness.Rng.create ~seed:2024 ()) 1000 in
  Array.sort compare s;
  s

let check_same label expected got =
  if expected <> got then
    Alcotest.failf "%s:\n  oracle %s\n  kernel %s" label expected got

let check_outcome ~exact label expected got =
  if not (same_outcome ~exact expected got) then
    Alcotest.failf "%s:\n  oracle %s\n  kernel %s" label (show expected) (show got)

(* --------------------- every candidate, 18 problems ---------------- *)

let test_every_candidate () =
  List.iter
    (fun (name, m, d) ->
      let lo, hi = Bounds.search_interval m d in
      let score = Recurrence.score m d in
      let sample = sorted_sample (fixed_sample d) in
      let ok = ref 0 in
      for i = 1 to 5000 do
        let t1 = lo +. (float_of_int i *. ((hi -. lo) /. 5000.0)) in
        let label = Printf.sprintf "%s t1 #%d" name i in
        let exact = oracle_outcome series m d t1 in
        check_outcome ~exact:true (label ^ " exact") exact (kernel_outcome score series t1);
        check_outcome ~exact:false (label ^ " sample") (oracle_outcome sample m d t1)
          (kernel_outcome score sample t1);
        let generate f = outcome (fun () -> Result.map (fun p -> (p, 0.0)) (f ())) in
        check_outcome ~exact:true (label ^ " generate")
          (generate (fun () -> O.generate m d ~t1))
          (generate (fun () -> Recurrence.generate m d ~t1));
        if Option.is_some exact.cost then incr ok
      done;
      Alcotest.(check bool) (name ^ ": some candidates valid") true (!ok > 0))
    problems

(* -------------------- the first-reservation bound ------------------ *)

(* Eq. (4) charges every sequence its whole first reservation, and Eq.
   (13) charges it to every sample: a sequence from t1 costs at least
   [alpha t1 + gamma + beta mean], with [mean] the law's mean under the
   series and the sample mean under a sample. A scan may therefore
   stop at the first grid point whose bound exceeds the incumbent by
   more than [margin]; the grid ascends and the incumbent only falls,
   so no later point can win. *)
let margin = Brute_force.margin

let first_reservation_bound (m : Cost_model.t) mean t1 =
  (m.alpha *. t1) +. m.gamma +. (m.beta *. mean)

(* The mean a scan charges [beta] on: the law's under the series; under
   Monte-Carlo, that of the [n] samples the scan draws from [seed]. *)
let charged_mean ~exact ~seed ~n d =
  if exact then d.Dist.mean
  else begin
    let s = Dist.samples d (Randomness.Rng.create ~seed ()) n in
    Array.sort compare s;
    Numerics.Kahan.mean_array s
  end

(* The 0-based index of the first grid point the bound closes, given
   every point's oracle cost, or [None] when the scan runs to the end. *)
let bound_cut m mean results =
  let n = Array.length results in
  let rec go i best =
    if i >= n then None
    else
      let t1, c = results.(i) in
      match best with
      | Some b when first_reservation_bound m mean t1 > b *. (1.0 +. margin) -> Some i
      | _ ->
          let best =
            match (c, best) with
            | Some c, Some b when Float.is_finite c && c < b -> Some c
            | Some c, None when Float.is_finite c -> Some c
            | _ -> best
          in
          go (i + 1) best
  in
  go 0 None

(* The grid points a bounded scan walks: those before the cut. *)
let walked m mean results =
  match bound_cut m mean results with Some cut -> cut | None -> Array.length results

(* The oracle's cost at every point of an [n]-point grid; a candidate
   whose scoring raises has none, as in [O.run_brute_force]. *)
let oracle_costs ~n evaluator cost d =
  let eval = O.make_eval evaluator cost d in
  let a, b = Bounds.search_interval cost d in
  let step = (b -. a) /. float_of_int n in
  Array.init n (fun i ->
      let t1 = a +. (float_of_int (i + 1) *. step) in
      (t1, match O.candidate_cost eval cost d t1 with c -> c | exception _ -> None))

(* ------------------- Brute_force on the 18 problems ---------------- *)

let evaluators () =
  [
    ("exact", true, fun () -> Brute_force.Exact);
    ( "mc",
      false,
      fun () -> Brute_force.Monte_carlo { rng = Randomness.Rng.create ~seed:11 (); n = 1000 } );
  ]

(* The oracle's per-candidate costs at the default 5,000 points, per
   problem and evaluator, computed once for the tests that read them. *)
let oracle_scans () =
  List.concat_map
    (fun (name, m, d) ->
      List.map
        (fun (ev_name, _, ev) -> ((name, ev_name), lazy (O.scan ~evaluator:(ev ()) m d)))
        (evaluators ()))
    problems

let test_brute_force scans () =
  List.iter
    (fun (name, m, d) ->
      List.iter
        (fun (ev_name, exact, ev) ->
          let label = Printf.sprintf "%s %s" name ev_name in
          let check_cost what expected got =
            if not (same_cost ~exact expected got) then
              Alcotest.failf "%s %s:\n  oracle %s\n  kernel %s" label what (bits expected)
                (bits got)
          in
          (* The full scan's winner; the valid candidates the bounded
             scan walks before its cut. *)
          let t1, cost, normalized, candidates, _ = O.search ~evaluator:(ev ()) m d in
          let results = Lazy.force (List.assoc (name, ev_name) scans) in
          let mean = charged_mean ~exact ~seed:11 ~n:1000 d in
          let valid =
            Array.fold_left
              (fun n (_, c) -> if Option.is_some c then n + 1 else n)
              0
              (Array.sub results 0 (walked m mean results))
          in
          let r = Brute_force.search ~evaluator:(ev ()) m d in
          check_same (label ^ " search")
            (Printf.sprintf "%s %d %d" (bits t1) candidates valid)
            (Printf.sprintf "%s %d %d" (bits r.Brute_force.t1) r.candidates r.valid);
          check_cost "search cost" cost r.cost;
          check_cost "search normalized" normalized r.normalized;
          check_same (label ^ " search sequence")
            (bits_array (Array.of_list (Sequence.take 40 (O.sequence m d ~t1))))
            (bits_array (Array.of_list (Sequence.take 40 r.sequence)));
          let expected = O.profile ~m:1000 ~evaluator:(ev ()) m d
          and got = Brute_force.profile ~m:1000 ~evaluator:(ev ()) m d in
          check_same (label ^ " profile t1")
            (bits_array (Array.map fst expected)) (bits_array (Array.map fst got));
          Array.iteri
            (fun i (t1, c) ->
              let what = "profile at " ^ bits t1 in
              match (c, snd got.(i)) with
              | None, None -> ()
              | Some e, Some g -> check_cost what e g
              | _ -> Alcotest.failf "%s %s: one side has no cost" label what)
            expected;
          List.iter
            (fun p ->
              let t1 = d.Dist.quantile p in
              let what = Printf.sprintf "cost_of_t1 q%g" p in
              match
                ( O.cost_of_t1 ~evaluator:(ev ()) m d t1,
                  Brute_force.cost_of_t1 ~evaluator:(ev ()) m d t1 )
              with
              | None, None -> ()
              | Some e, Some g -> check_cost what e g
              | _ -> Alcotest.failf "%s %s: one side has no cost" label what)
            [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ])
        (evaluators ()))
    problems

(* Every oracle cost respects the bound, and every point past the cut
   costs at least the winner of the whole grid. *)
let test_bound_sound scans () =
  let bounded = ref 0 in
  List.iter
    (fun (name, m, d) ->
      List.iter
        (fun (ev_name, exact, _) ->
          let label = Printf.sprintf "%s %s" name ev_name in
          let mean = charged_mean ~exact ~seed:11 ~n:1000 d in
          let results = Lazy.force (List.assoc (name, ev_name) scans) in
          let winner =
            Array.fold_left
              (fun w (_, c) ->
                match c with Some c when Float.is_finite c -> Float.min w c | _ -> w)
              infinity results
          in
          Array.iter
            (fun (t1, c) ->
              match c with
              | Some c when c *. (1.0 +. margin) < first_reservation_bound m mean t1 ->
                  Alcotest.failf "%s: cost %h at t1 %h is below its bound %h" label c t1
                    (first_reservation_bound m mean t1)
              | _ -> ())
            results;
          match bound_cut m mean results with
          | None -> ()
          | Some cut ->
              bounded := !bounded + (Array.length results - cut);
              for i = cut to Array.length results - 1 do
                match results.(i) with
                | t1, Some c when c < winner ->
                    Alcotest.failf "%s: bounded t1 %h costs %h, below the winner's %h" label
                      t1 c winner
                | _ -> ()
              done)
        (evaluators ()))
    problems;
  Alcotest.(check bool) "the bound closes some grid points" true (!bounded > 0)

(* ---------------------- Robust.Solver.solve ----------------------- *)

(* What [solve] must return when brute force wins: the oracle scan's
   t1, then the solver's vetting (head to the coverage point, exact
   cost) on the oracle's sequence. The scan charges one evaluation per
   grid point it walks before the first-reservation bound's cut. *)
let expected_solution ~exact budget m d =
  let st = { O.budget; evaluations = 0 } in
  let t1 = O.run_brute_force st ~exact ~seed:42 m d in
  let n = budget.Solver.bf_candidates and mc_n = budget.Solver.mc_samples in
  let evaluator =
    if exact then Brute_force.Exact
    else Brute_force.Monte_carlo { rng = Randomness.Rng.create ~seed:42 (); n = mc_n }
  in
  let scanned =
    walked m (charged_mean ~exact ~seed:42 ~n:mc_n d) (oracle_costs ~n evaluator m d)
  in
  let seq = O.sequence m d ~t1 in
  let stop t =
    if Dist.is_bounded d then t >= Dist.upper d else d.Dist.cdf t >= 1.0 -. 1e-9
  in
  let head = Sequence.prefix_until ~limit:20_000 stop seq in
  let cost = O.exact m d seq in
  Printf.sprintf "tier=%s evaluations=%d head=[%s] cost=%s normalized=%s rejected=[]"
    (Solver.tier_name Solver.Brute_force)
    (scanned + Array.length head)
    (bits_array head) (bits cost)
    (bits (cost /. Expected_cost.omniscient m d))

let solution_key (s : Solver.solution) =
  let dg = s.Solver.diagnostics in
  Printf.sprintf "tier=%s evaluations=%d head=[%s] cost=%s normalized=%s rejected=[%s]"
    (Solver.tier_name dg.Solver.chosen) dg.Solver.evaluations
    (bits_array s.Solver.head) (bits s.Solver.cost) (bits s.Solver.normalized)
    (String.concat "; "
       (List.map (fun r -> Solver.error_to_string r.Solver.reason) dg.Solver.rejected))

(* [solve] ranks t1 by the Eq. (4) series unless told otherwise, and
   [~exact:false] stays the paper's Monte-Carlo scan. *)
let test_solver ~exact solve () =
  List.iter
    (fun (name, m, d) ->
      List.iter
        (fun (budget_name, budget) ->
          match solve ~budget m d with
          | Ok s ->
              check_same
                (Printf.sprintf "%s solve %s" name budget_name)
                (expected_solution ~exact budget m d) (solution_key s)
          | Error e ->
              Alcotest.failf "%s solve %s: %s" name budget_name (Solver.error_to_string e))
        [ ("defaults", Solver.default_budget); ("quick_budget", Solver.quick_budget) ])
    problems

(* Laws whose density raises: past the median, so the walk raises
   before most verdicts are known; or only where the CDF has reached
   the coverage point, so only the Eq. (4) scoring of valid candidates
   does.
   The first ends the brute-force tier with the exception; the second
   counts the candidates whose scoring raised as failed evaluations. *)
let raising_pdf name raises =
  let d = Distributions.Lognormal.make ~mu:1.0 ~sigma:0.5 in
  (name, { d with Dist.pdf = (fun t -> if raises d t then failwith name else d.Dist.pdf t) })

let test_solver_raising_pdf () =
  List.iter
    (fun (name, d) ->
      let m = Cost_model.neuro_hpc and budget = Solver.quick_budget in
      let rejected reason = "brute force rejected: " ^ Solver.error_to_string reason in
      let expected =
        match expected_solution ~exact:true budget m d with
        | key -> key
        | exception O.Tier_fail msg -> "brute force rejected: non-convergent in " ^ msg
        | exception e ->
            rejected
              (Solver.Non_convergent
                 {
                   stage = Solver.tier_name Solver.Brute_force;
                   detail = "unexpected exception " ^ Printexc.to_string e;
                 })
      in
      match Solver.solve ~validate:false ~exact:true ~budget m d with
      | Ok s ->
          check_same name expected
            (match s.Solver.diagnostics.Solver.rejected with
            | r :: _ when r.Solver.tier = Solver.Brute_force -> rejected r.Solver.reason
            | _ -> solution_key s)
      | Error e -> Alcotest.failf "%s: %s" name (Solver.error_to_string e))
    [
      raising_pdf "pdf past the median" (fun d t -> t > d.Dist.quantile 0.5);
      raising_pdf "pdf past coverage" (fun d t -> d.Dist.cdf t >= Recurrence.coverage);
    ]

(* ------------------------ Exponential_opt ------------------------- *)

let test_exponential_opt () =
  let s1, e1 = O.exp_opt () in
  let sol = Exponential_opt.solve () in
  check_same "s1 e1"
    (bits s1 ^ " " ^ bits e1)
    (bits sol.Exponential_opt.s1 ^ " " ^ bits sol.Exponential_opt.e1)

(* ---------------------------- property ---------------------------- *)

let mixtures =
  [
    ("Mixture.default", Distributions.Mixture.default);
    ( "Mix(LogNormal | vanishing Exp)",
      Distributions.Mixture.make
        [
          (1.0 -. 1e-9, Distributions.Lognormal.make ~mu:1.0 ~sigma:0.5);
          (1e-9, Distributions.Exponential.default);
        ] );
  ]

let empirical =
  [
    ("Empirical(7)", Distributions.Empirical.make [| 0.5; 1.0; 1.2; 2.0; 3.5; 3.5; 9.0 |]);
    ( "Empirical(lognormal 60)",
      Distributions.Empirical.make
        (Dist.samples Distributions.Lognormal.default (Randomness.Rng.create ~seed:3 ()) 60) );
  ]

let laws = (Distributions.Table1.all @ Distributions.Registry.extras) @ mixtures @ empirical

let case_gen =
  let open QCheck.Gen in
  let* law = oneofl laws in
  let* model =
    oneof
      [
        oneofl (List.map snd models);
        map3
          (fun alpha beta gamma -> Cost_model.make ~alpha ~beta ~gamma ())
          (float_range 0.1 3.0) (float_range 0.0 2.0) (float_range 0.0 2.0);
      ]
  in
  let _, d = law in
  let lo, hi =
    match Bounds.search_interval model d with
    | r -> r
    | exception Invalid_argument _ -> (Dist.lower d, d.Dist.quantile 0.999)
  in
  let* t1 =
    match d.Dist.support with
    | Dist.Bounded (a, b) ->
        (* Most bounded cases sit within a few ulps to 1e-6 of b, where
           the near-b snap of [Sequence.sanitize] and the clamp at b
           part ways, or exactly on the snap threshold. *)
        let near_b = b -. (1e-9 *. (b -. a)) in
        oneof
          [
            float_range lo hi;
            map (fun k -> b -. (b *. 1e-16 *. float_of_int k)) (int_range 0 40);
            map (fun e -> b -. ((b -. lo) *. e)) (float_range 1e-12 1e-6);
            oneofl [ Float.pred near_b; near_b; Float.succ near_b ];
          ]
    | Dist.Unbounded _ -> float_range lo hi
  in
  let* seed = int_range 0 1000 in
  return (law, model, t1, seed)

let print_case ((name, _), (m : Cost_model.t), t1, seed) =
  Printf.sprintf "%s alpha=%g beta=%g gamma=%g t1=%h seed=%d" name m.alpha m.beta m.gamma
    t1 seed

let prop_kernel_is_oracle =
  QCheck.Test.make ~count:400 ~name:"kernel = three-walk oracle, Eq. (13) costs within 4 eps"
    (QCheck.make ~print:print_case case_gen)
    (fun ((_, d), m, t1, seed) ->
      let sample =
        let s = Dist.samples d (Randomness.Rng.create ~seed ()) 200 in
        Array.sort compare s;
        sorted_sample s
      in
      let score = Recurrence.score m d in
      let same what ~exact expected got =
        if not (same_outcome ~exact expected got) then
          QCheck.Test.fail_reportf "%s:\n  oracle %s\n  kernel %s" what (show expected)
            (show got)
      in
      same "exact" ~exact:true (oracle_outcome series m d t1) (kernel_outcome score series t1);
      same "sample" ~exact:false (oracle_outcome sample m d t1) (kernel_outcome score sample t1);
      let same what expected got =
        if expected <> got then
          QCheck.Test.fail_reportf "%s:\n  oracle %s\n  kernel %s" what expected got
      in
      let cost f = match f () with c -> bits c | exception e -> Printexc.to_string e in
      same "exact on sequence"
        (cost (fun () -> O.exact m d (O.sequence m d ~t1)))
        (cost (fun () -> Expected_cost.exact m d (Recurrence.sequence m d ~t1)));
      same "sequence"
        (bits_array (Array.of_list (Sequence.take 60 (O.sequence m d ~t1))))
        (bits_array (Array.of_list (Sequence.take 60 (Recurrence.sequence m d ~t1))));
      true)

let () =
  let scans = oracle_scans () in
  Alcotest.run "recurrence_oracle"
    [
      ( "pins",
        [
          Alcotest.test_case "every candidate, 18 problems" `Quick test_every_candidate;
          Alcotest.test_case "brute force search/profile/cost_of_t1" `Quick (test_brute_force scans);
          Alcotest.test_case "first-reservation bound is sound" `Quick (test_bound_sound scans);
          Alcotest.test_case "solver defaults and quick budget" `Quick
            (test_solver ~exact:true (fun ~budget m d -> Solver.solve ~budget m d));
          Alcotest.test_case "solver Monte-Carlo opt-out" `Quick
            (test_solver ~exact:false (fun ~budget m d -> Solver.solve ~exact:false ~budget m d));
          Alcotest.test_case "solver on a raising pdf" `Quick test_solver_raising_pdf;
          Alcotest.test_case "exponential optimum" `Quick test_exponential_opt;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_kernel_is_oracle ]);
    ]
