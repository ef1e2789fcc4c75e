(* Two-tier spot reservations: the revocation-aware cost model, its
   degenerate equivalence with the base Eq. (1) evaluator, typed
   parameter rejection, the tier-assignment search's degradation
   guarantee, and the analytic/Monte-Carlo agreement contract (the
   analytic evaluator must sit within 2% of seeded trace-driven
   simulation across the revocation spectrum). *)

module SC = Stochastic_core
module Spot_cost = SC.Spot_cost
module Spot_plan = SC.Spot_plan
module Spot_sim = Scheduler.Spot_sim
module Solver = Robust.Solver

let m_hpc = SC.Cost_model.neuro_hpc
let m_res = SC.Cost_model.reservation_only

let snapshot =
  Spot_cost.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }

(* A strictly increasing head for a distribution: the mean-by-mean
   heuristic's prefix, the same shape base strategies produce. *)
let head_of ?(k = 8) d =
  SC.Heuristics.mean_by_mean d
  |> Stochastic_core.Sequence.take k
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Degenerate equivalence: price 1, rate 0, restart recovery must     *)
(* reproduce the base evaluator bit-for-bit on every Table 1 law.     *)
(* ------------------------------------------------------------------ *)

let test_degenerate_bit_for_bit () =
  List.iter
    (fun (name, d) ->
      let lengths = head_of d in
      if Array.length lengths = 0 then
        Alcotest.failf "%s: empty heuristic head" name;
      List.iter
        (fun (mname, m) ->
          let plan = Spot_cost.uniform_plan Spot_cost.Spot lengths in
          let base = SC.Expected_cost.exact m d (Spot_cost.to_sequence plan) in
          let deg = Spot_cost.expected_cost Spot_cost.on_demand_only m d plan in
          if Int64.bits_of_float deg <> Int64.bits_of_float base then
            Alcotest.failf "%s/%s: degenerate %.17g <> exact %.17g" name mname
              deg base)
        [ ("reservation-only", m_res); ("neuro-hpc", m_hpc) ])
    Distributions.Table1.all

(* The degenerate regime must also flow through the shared evaluator
   closure (the path tier assignment uses). *)
let test_degenerate_evaluator_closure () =
  let d = Distributions.Lognormal.default in
  let lengths = head_of d in
  let eval = Spot_cost.evaluator Spot_cost.on_demand_only m_hpc d in
  let plan = Spot_cost.uniform_plan Spot_cost.On_demand lengths in
  let base = SC.Expected_cost.exact m_hpc d (Spot_cost.to_sequence plan) in
  Alcotest.(check bool)
    "closure bit-for-bit" true
    (Int64.bits_of_float (eval plan) = Int64.bits_of_float base)

(* ------------------------------------------------------------------ *)
(* Bit identity with the oracle: the flat-memo evaluator against the  *)
(* hashtable recursion it replaced (Spot_oracle, test-only).          *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_against_oracle ~what ?disc_n ?eps regime m d plan =
  let got = Spot_cost.expected_cost ?disc_n ?eps regime m d plan in
  let want = Spot_oracle.expected_cost ?disc_n ?eps regime m d plan in
  if not (same_bits got want) then
    Alcotest.failf "%s: evaluator %.17g <> oracle %.17g" what got want

(* The benchmark's spot workload: LogNormal(3, 0.5) under NeuroHPC with
   snapshot recovery, in its four (MTBF, price) cells. The threshold
   tierings of the head and the single-tier ladders assign scores are
   pinned, and so is the cost it reports for the plan it picks. *)
let test_oracle_workload_plans () =
  let d = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let disc_n = 48 and eps = 1e-8 in
  let upper = SC.Discretize.truncation_point ~eps d in
  List.iter
    (fun (mtbf, price_ratio) ->
      let cell = Printf.sprintf "mtbf %gh / price %g" mtbf price_ratio in
      let revocation_rate = 1.0 /. mtbf in
      let regime =
        Spot_cost.make_regime ~recovery:snapshot ~price_ratio ~revocation_rate ()
      in
      match
        Solver.solve_spot ~recovery:snapshot ~disc_n ~price_ratio ~revocation_rate
          m_hpc d
      with
      | Error e -> Alcotest.failf "%s: %s" cell (Solver.error_to_string e)
      | Ok sol ->
          let head = sol.Solver.base.Solver.head in
          let n = Array.length head in
          let thresholds =
            List.init (n + 1) (fun i ->
                Spot_cost.make_plan ~lengths:head
                  ~tiers:
                    (Array.init n (fun k ->
                         if k < i then Spot_cost.Spot else Spot_cost.On_demand)))
          in
          let ladders =
            List.concat_map
              (fun chunk ->
                match Spot_plan.ladder_lengths regime ~upper chunk with
                | None -> []
                | Some rungs ->
                    [
                      Spot_cost.uniform_plan Spot_cost.Spot rungs;
                      Spot_cost.uniform_plan Spot_cost.On_demand rungs;
                    ])
              (Spot_plan.chunk_grid regime ~upper)
          in
          Alcotest.(check bool) (cell ^ ": ladders scored") true (ladders <> []);
          List.iteri
            (fun i plan ->
              check_against_oracle
                ~what:(Printf.sprintf "%s plan %d" cell i)
                ~disc_n ~eps regime m_hpc d plan)
            (thresholds @ ladders);
          let picked =
            Spot_oracle.expected_cost ~disc_n ~eps regime m_hpc d sol.Solver.plan
          in
          if not (same_bits picked sol.Solver.spot_cost) then
            Alcotest.failf "%s: reported cost %.17g <> oracle %.17g" cell
              sol.Solver.spot_cost picked)
    [ (5.0, 0.3); (20.0, 0.3); (100.0, 0.3); (5.0, 0.8) ]

let oracle_laws =
  [|
    ("lognormal(1, 0.5)", Distributions.Lognormal.make ~mu:1.0 ~sigma:0.5);
    ("weibull(3, 1.5)", Distributions.Weibull.make ~lambda:3.0 ~kappa:1.5);
    ("gamma(2, 1)", Distributions.Gamma_dist.make ~shape:2.0 ~rate:1.0);
    ("uniform(0.5, 6)", Distributions.Uniform_dist.make ~a:0.5 ~b:6.0);
  |]

type oracle_case = {
  law : int;
  recovery : Spot_cost.recovery;
  price_ratio : float;
  revocation_rate : float;
  lengths : float array;
  tiers : Spot_cost.tier array;
}

let gen_oracle_case =
  let open QCheck.Gen in
  let cost = frequency [ (1, return 0.0); (2, float_range 0.0 0.3) ] in
  let* law = int_bound (Array.length oracle_laws - 1) in
  let* recovery =
    frequency
      [
        (1, return Spot_cost.Restart);
        ( 2,
          let* period = float_range 0.25 3.0 in
          let* snapshot_cost = cost in
          let+ restore_cost = cost in
          Spot_cost.Snapshot { period; snapshot_cost; restore_cost } );
      ]
  in
  let* price_ratio = frequency [ (1, return 1.0); (3, float_range 0.05 1.0) ] in
  let* revocation_rate =
    frequency
      [ (1, return 0.0); (4, map (fun e -> 10.0 ** e) (float_range (-4.0) 1.0)) ]
  in
  let* n = int_range 1 64 in
  let* lengths =
    oneof
      [
        (* Increasing: a base-style escalating head. *)
        (let* start = float_range 0.2 3.0 in
         let+ steps = array_size (return n) (float_range 0.05 3.0) in
         let acc = ref start in
         Array.map
           (fun s ->
             let l = !acc in
             acc := !acc +. s;
             l)
           steps);
        (* Flat: one chunk repeated. *)
        map (fun c -> Array.make n c) (float_range 0.2 6.0);
        (* Unordered lengths. *)
        array_size (return n) (float_range 0.1 8.0);
      ]
  in
  let+ tiers =
    oneof
      [
        return (Array.make n Spot_cost.Spot);
        return (Array.make n Spot_cost.On_demand);
        map
          (fun cut ->
            Array.init n (fun k -> if k < cut then Spot_cost.Spot else Spot_cost.On_demand))
          (int_bound n);
        array_size (return n)
          (map (fun b -> if b then Spot_cost.Spot else Spot_cost.On_demand) bool);
      ]
  in
  { law; recovery; price_ratio; revocation_rate; lengths; tiers }

let print_oracle_case c =
  Printf.sprintf "law=%s recovery=%s price=%.17g rate=%.17g lengths=[%s] tiers=%s"
    (fst oracle_laws.(c.law))
    (match c.recovery with
    | Spot_cost.Restart -> "restart"
    | Spot_cost.Snapshot { period; snapshot_cost; restore_cost } ->
        Printf.sprintf "snapshot(%.17g, %.17g, %.17g)" period snapshot_cost restore_cost)
    c.price_ratio c.revocation_rate
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.17g") c.lengths)))
    (String.concat ""
       (Array.to_list
          (Array.map (function Spot_cost.Spot -> "s" | Spot_cost.On_demand -> "o") c.tiers)))

let prop_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"evaluator matches the oracle bit for bit"
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let regime =
        Spot_cost.make_regime ~recovery:c.recovery ~price_ratio:c.price_ratio
          ~revocation_rate:c.revocation_rate ()
      in
      let plan = Spot_cost.make_plan ~lengths:c.lengths ~tiers:c.tiers in
      check_against_oracle ~what:"case" ~disc_n:24 ~eps:1e-6 regime m_hpc
        (snd oracle_laws.(c.law)) plan;
      true)

(* ------------------------------------------------------------------ *)
(* Typed parameter rejection through the solver taxonomy.             *)
(* ------------------------------------------------------------------ *)

let check_invalid name f =
  match f () with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error (Solver.Invalid_parameter { name = got; _ }) ->
      Alcotest.(check string) name name got
  | Error e -> Alcotest.failf "%s: wrong error %s" name (Solver.error_to_string e)

let test_spot_regime_rejections () =
  let regime ?recovery ~price_ratio ~revocation_rate () =
    Solver.spot_regime ?recovery ~price_ratio ~revocation_rate ()
  in
  check_invalid "price_ratio" (fun () ->
      regime ~price_ratio:0.0 ~revocation_rate:0.1 ());
  check_invalid "price_ratio" (fun () ->
      regime ~price_ratio:1.5 ~revocation_rate:0.1 ());
  check_invalid "price_ratio" (fun () ->
      regime ~price_ratio:Float.nan ~revocation_rate:0.1 ());
  check_invalid "revocation_rate" (fun () ->
      regime ~price_ratio:0.3 ~revocation_rate:(-1.0) ());
  check_invalid "revocation_rate" (fun () ->
      regime ~price_ratio:0.3 ~revocation_rate:Float.infinity ());
  let snap period snapshot_cost restore_cost =
    Spot_cost.Snapshot { period; snapshot_cost; restore_cost }
  in
  check_invalid "checkpoint_period" (fun () ->
      regime ~recovery:(snap 0.0 0.05 0.05) ~price_ratio:0.3
        ~revocation_rate:0.1 ());
  check_invalid "checkpoint_cost" (fun () ->
      regime ~recovery:(snap 1.0 (-0.05) 0.05) ~price_ratio:0.3
        ~revocation_rate:0.1 ());
  check_invalid "restore_cost" (fun () ->
      regime ~recovery:(snap 1.0 0.05 Float.nan) ~price_ratio:0.3
        ~revocation_rate:0.1 ());
  (* The valid regime goes through. *)
  match regime ~recovery:snapshot ~price_ratio:0.3 ~revocation_rate:0.05 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid regime rejected: %s" (Solver.error_to_string e)

(* solve_spot surfaces the same taxonomy end to end (exit-code 7 in
   the CLI), without raising. *)
let test_solve_spot_rejects_typed () =
  let d = Distributions.Lognormal.default in
  match
    Solver.solve_spot ~budget:Solver.quick_budget ~price_ratio:2.0
      ~revocation_rate:0.05 m_hpc d
  with
  | Error (Solver.Invalid_parameter { name; _ }) ->
      Alcotest.(check string) "field" "price_ratio" name
  | Error e -> Alcotest.failf "wrong error %s" (Solver.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted price_ratio 2.0"

(* ------------------------------------------------------------------ *)
(* Per-attempt accounting (slot_outcome).                             *)
(* ------------------------------------------------------------------ *)

let outcome = Spot_cost.slot_outcome

let test_on_demand_ignores_revocation () =
  let regime = Spot_cost.make_regime ~recovery:snapshot ~price_ratio:0.3
      ~revocation_rate:0.2 () in
  let a =
    outcome regime m_hpc ~tier:Spot_cost.On_demand ~length:10.0 ~progress:0.0
      ~total:6.0 ~revocation:0.5
  in
  let b =
    outcome regime m_hpc ~tier:Spot_cost.On_demand ~length:10.0 ~progress:0.0
      ~total:6.0 ~revocation:Float.infinity
  in
  Alcotest.(check bool) "finished" true (a.Spot_cost.finished && b.Spot_cost.finished);
  Alcotest.(check (float 0.0)) "billed" b.Spot_cost.billed a.Spot_cost.billed

let test_revoked_attempt_billing () =
  (* Pay-for-use: a spot reservation revoked after s hours is billed
     (price * alpha + beta) * s + gamma, never the full length. *)
  let regime = Spot_cost.make_regime ~recovery:snapshot ~price_ratio:0.3
      ~revocation_rate:0.05 () in
  let s = 3.7 in
  let o =
    outcome regime m_hpc ~tier:Spot_cost.Spot ~length:50.0 ~progress:0.0
      ~total:40.0 ~revocation:s
  in
  let alpha = m_hpc.SC.Cost_model.alpha
  and beta = m_hpc.SC.Cost_model.beta
  and gamma = m_hpc.SC.Cost_model.gamma in
  Alcotest.(check bool) "revoked" true o.Spot_cost.revoked;
  Alcotest.(check (float 1e-12)) "billed"
    (((0.3 *. alpha) +. beta) *. s +. gamma)
    o.Spot_cost.billed;
  (* 3.7 hours = 3 whole periods of durable progress at stride 1.05. *)
  Alcotest.(check (float 1e-12)) "durable" 3.0 o.Spot_cost.progress

let test_restart_revocation_loses_everything () =
  let regime =
    Spot_cost.make_regime ~price_ratio:0.3 ~revocation_rate:0.05 ()
  in
  let o =
    outcome regime m_hpc ~tier:Spot_cost.Spot ~length:50.0 ~progress:0.0
      ~total:40.0 ~revocation:25.0
  in
  Alcotest.(check (float 0.0)) "no durable progress" 0.0 o.Spot_cost.progress;
  Alcotest.(check bool) "not finished" false o.Spot_cost.finished

(* A NaN revocation time is rejected like a negative one, on either
   tier, instead of being read as "never revoked". *)
let test_nan_revocation_rejected () =
  let regime = Spot_cost.make_regime ~recovery:snapshot ~price_ratio:0.3
      ~revocation_rate:0.05 () in
  List.iter
    (fun (name, tier, revocation) ->
      match
        outcome regime m_hpc ~tier ~length:10.0 ~progress:0.0 ~total:6.0
          ~revocation
      with
      | _ -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("spot nan", Spot_cost.Spot, Float.nan);
      ("on-demand nan", Spot_cost.On_demand, Float.nan);
      ("spot negative", Spot_cost.Spot, -1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Tier assignment: graceful degradation and the on-demand floor.     *)
(* ------------------------------------------------------------------ *)

let test_hostile_regime_degrades () =
  (* Near-on-demand price, 2 h MTBF: spot cannot pay for its risk. *)
  let d = Distributions.Lognormal.default in
  let regime = Spot_cost.make_regime ~recovery:snapshot ~price_ratio:0.95
      ~revocation_rate:0.5 () in
  let a = Spot_plan.assign ~disc_n:300 regime m_hpc d (head_of d) in
  Alcotest.(check int) "no spot reservations" 0
    (Spot_cost.spot_slots a.Spot_plan.plan);
  Alcotest.(check bool) "cost equals the on-demand floor" true
    (a.Spot_plan.cost >= a.Spot_plan.on_demand_cost -. 1e-12)

let prop_never_worse_than_on_demand =
  QCheck.Test.make ~count:12
    ~name:"assignment never exceeds its own on-demand floor"
    QCheck.(
      triple (float_range 0.05 1.0) (float_range 0.0 0.6) (int_range 0 1))
    (fun (price_ratio, revocation_rate, restart) ->
      let d = Distributions.Lognormal.default in
      let recovery = if restart = 1 then Spot_cost.Restart else snapshot in
      let regime =
        Spot_cost.make_regime ~recovery ~price_ratio ~revocation_rate ()
      in
      let a = Spot_plan.assign ~disc_n:120 ~eps:1e-6 regime m_hpc d (head_of d) in
      a.Spot_plan.cost <= a.Spot_plan.on_demand_cost +. 1e-9)

let test_solve_spot_end_to_end () =
  let d = Distributions.Lognormal.default in
  match
    Solver.solve_spot ~budget:Solver.quick_budget ~recovery:snapshot
      ~disc_n:300 ~price_ratio:0.3 ~revocation_rate:(1.0 /. 20.0) m_hpc d
  with
  | Error e -> Alcotest.failf "solve_spot failed: %s" (Solver.error_to_string e)
  | Ok sol ->
      Alcotest.(check bool) "spot helps at ratio 0.3 / MTBF 20h" true
        (sol.Solver.spot_cost < sol.Solver.on_demand_cost);
      Alcotest.(check bool) "savings consistent" true
        (abs_float
           (sol.Solver.savings
           -. (1.0 -. (sol.Solver.spot_cost /. sol.Solver.on_demand_cost)))
        < 1e-12);
      Alcotest.(check bool) "beats the base Eq.(1) cost" true
        (sol.Solver.spot_cost < sol.Solver.base.Solver.cost)

(* ------------------------------------------------------------------ *)
(* Analytic vs seeded simulation: within 2% across >= 3 regimes.      *)
(* ------------------------------------------------------------------ *)

let mc_regimes =
  (* (price_ratio, mtbf, recovery, plan) spanning the revocation
     spectrum: harsh, the CI gate cell, and gentle; ladder and
     escalating-head shapes; snapshot and restart recovery. *)
  let d = Distributions.Lognormal.default in
  let ladder = Array.make 42 10.0 in
  let mixed_head =
    let lengths = head_of d in
    let n = Array.length lengths in
    Spot_cost.make_plan ~lengths
      ~tiers:
        (Array.init n (fun i ->
             if i < n / 2 then Spot_cost.Spot else Spot_cost.On_demand))
  in
  [
    ("harsh 0.3 / 5h", 0.3, 5.0, snapshot,
     Spot_cost.uniform_plan Spot_cost.Spot ladder);
    ("gate 0.3 / 20h", 0.3, 20.0, snapshot,
     Spot_cost.uniform_plan Spot_cost.Spot ladder);
    ("gentle 0.5 / 100h", 0.5, 100.0, snapshot,
     Spot_cost.uniform_plan Spot_cost.Spot ladder);
    ("restart 0.5 / 100h", 0.5, 100.0, Spot_cost.Restart, mixed_head);
  ]

let test_analytic_matches_simulation () =
  let d = Distributions.Lognormal.default in
  List.iter
    (fun (name, price_ratio, mtbf, recovery, plan) ->
      let regime =
        Spot_cost.make_regime ~recovery ~price_ratio
          ~revocation_rate:(1.0 /. mtbf) ()
      in
      let analytic = Spot_cost.expected_cost ~disc_n:2000 regime m_hpc d plan in
      let sim = Spot_sim.run ~reps:20_000 ~seed:42 regime m_hpc d plan in
      let rel =
        abs_float (analytic -. sim.Spot_sim.mean_cost) /. Float.max 1e-9 analytic
      in
      if rel > 0.02 then
        Alcotest.failf "%s: analytic %.4f vs simulated %.4f (rel %.4f)" name
          analytic sim.Spot_sim.mean_cost rel;
      Alcotest.(check int) "every replication completes" 0
        sim.Spot_sim.incomplete)
    mc_regimes

(* Simulation replays bit-for-bit under a fixed seed (the CI gate
   depends on it). *)
let test_simulation_deterministic () =
  let d = Distributions.Lognormal.default in
  let regime = Spot_cost.make_regime ~recovery:snapshot ~price_ratio:0.3
      ~revocation_rate:0.05 () in
  let plan = Spot_cost.uniform_plan Spot_cost.Spot (Array.make 42 10.0) in
  let a = Spot_sim.run ~reps:2_000 ~seed:7 regime m_hpc d plan in
  let b = Spot_sim.run ~reps:2_000 ~seed:7 regime m_hpc d plan in
  Alcotest.(check bool) "bit-for-bit" true
    (Int64.bits_of_float a.Spot_sim.mean_cost
    = Int64.bits_of_float b.Spot_sim.mean_cost)

let () =
  Alcotest.run "spot"
    [
      ( "degenerate",
        [
          Alcotest.test_case "Table 1 laws bit-for-bit" `Quick
            test_degenerate_bit_for_bit;
          Alcotest.test_case "evaluator closure bit-for-bit" `Quick
            test_degenerate_evaluator_closure;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "spot workload plans bit-for-bit" `Quick
            test_oracle_workload_plans;
          QCheck_alcotest.to_alcotest prop_matches_oracle;
        ] );
      ( "validation",
        [
          Alcotest.test_case "spot_regime rejects each bad field" `Quick
            test_spot_regime_rejections;
          Alcotest.test_case "solve_spot returns typed errors" `Quick
            test_solve_spot_rejects_typed;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "on-demand ignores revocation" `Quick
            test_on_demand_ignores_revocation;
          Alcotest.test_case "revocation bills pay-for-use" `Quick
            test_revoked_attempt_billing;
          Alcotest.test_case "restart recovery loses everything" `Quick
            test_restart_revocation_loses_everything;
          Alcotest.test_case "NaN revocation rejected" `Quick
            test_nan_revocation_rejected;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "hostile regime degrades to on-demand" `Quick
            test_hostile_regime_degrades;
          QCheck_alcotest.to_alcotest prop_never_worse_than_on_demand;
          Alcotest.test_case "solve_spot end to end" `Quick
            test_solve_spot_end_to_end;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "analytic within 2% of simulation" `Slow
            test_analytic_matches_simulation;
          Alcotest.test_case "simulation replays bit-for-bit" `Quick
            test_simulation_deterministic;
        ] );
    ]
