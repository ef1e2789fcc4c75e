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

let on_demand_only =
  { Spot_cost.price_ratio = 1.0; revocation_rate = 0.0; recovery = SC.Attempt.Restart }

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
          let deg = Spot_cost.expected_cost on_demand_only m d plan in
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
  let eval = Spot_cost.evaluator on_demand_only m_hpc d in
  let plan = Spot_cost.uniform_plan Spot_cost.On_demand lengths in
  let base = SC.Expected_cost.exact m_hpc d (Spot_cost.to_sequence plan) in
  Alcotest.(check bool)
    "closure bit-for-bit" true
    (Int64.bits_of_float (eval plan) = Int64.bits_of_float base)

(* ------------------------------------------------------------------ *)
(* Oracles. The degenerate regime: the evaluator against the          *)
(* hashtable recursion (Spot_oracle), bit for bit. Otherwise, under   *)
(* Restart and Snapshot alike: every node against the per-size        *)
(* flat-memo scorer (Spot_flat_oracle) at the node's size. The        *)
(* flat-memo scorer is itself pinned bit for bit to the hashtable     *)
(* recursion.                                                         *)
(* ------------------------------------------------------------------ *)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_bits ~what ?disc_n ?eps regime m d plan =
  let got = Spot_cost.expected_cost ?disc_n ?eps regime m d plan in
  let want = Spot_oracle.expected_cost ?disc_n ?eps regime m d plan in
  if not (same_bits got want) then
    Alcotest.failf "%s: evaluator %.17g <> oracle %.17g" what got want

(* A lattice node and the per-size recursion at its size evaluate the
   same states in a different order: the lattice sums the middle
   revocation windows as a running sum, telescopes their billing and
   skips the recursion's 1e-13 pruning. Each of those moves a cost by
   a few ulps per state, or by 1e-13 of a pruned branch, and at small
   revocation rates the recursion's window billing, scaled by 1/lam,
   cancels a few more digits. A Restart node differs from the
   recursion only by that billing, which the evaluator writes in the
   lattice's expm1 form. The worst gaps observed are 2e-12 on the
   random property below (over 14 seeds) and 6e-15 on the benchmark's
   plans, so 1e-10 leaves a factor of 50. *)
let kernel_rel = 1e-10

let check_nodes ~what ?disc_n ?eps regime m d plan =
  let nodes = Spot_cost.nodes ?disc_n ?eps regime m d plan in
  let per_size = Spot_flat_oracle.plan_scorer regime m plan in
  let acc = Numerics.Kahan.create () in
  Array.iter
    (fun { Spot_cost.size; weight; value } ->
      let want = per_size size in
      if not (abs_float (value -. want) <= kernel_rel *. abs_float want) then
        Alcotest.failf "%s: node at size %.17g: lattice %.17g <> per-size %.17g" what size
          value want;
      Numerics.Kahan.add acc (weight *. value))
    nodes;
  let cost = Spot_cost.expected_cost ?disc_n ?eps regime m d plan in
  if not (same_bits cost (Numerics.Kahan.sum acc)) then
    Alcotest.failf "%s: cost %.17g is not the nodes' sum %.17g" what cost
      (Numerics.Kahan.sum acc)

let check_against_oracles ~what ?disc_n ?eps regime m d plan =
  if Spot_flat_oracle.is_degenerate regime then
    check_bits ~what ?disc_n ?eps regime m d plan
  else check_nodes ~what ?disc_n ?eps regime m d plan

(* The benchmark's spot workload: LogNormal(3, 0.5) under NeuroHPC with
   snapshot recovery, in its four (MTBF, price) cells. The plans
   [Spot_plan.assign] scores there are rebuilt: the threshold tierings
   of the head, every ladder (all spot, all on-demand, spot-prefix
   cuts) and the single-slot flips of a head winner. Every lattice node
   of every one of them must match the per-size recursion. At
   [disc_n] 2 the lattice spans 30 periods and every slot's finish
   jumps still cut it; checking all its nodes takes about 2 s. *)
let test_oracle_workload_plans () =
  let d = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let disc_n = 2 and eps = 1e-8 in
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
          let cut_tiers k cut =
            Array.init k (fun i -> if i < cut then Spot_cost.Spot else Spot_cost.On_demand)
          in
          let n = Array.length head in
          let thresholds =
            List.init (n + 1) (fun i -> Spot_cost.make_plan ~lengths:head ~tiers:(cut_tiers n i))
          in
          let ladders =
            List.concat_map
              (fun chunk ->
                match Spot_plan.ladder_lengths regime ~upper chunk with
                | None -> []
                | Some rungs ->
                    let k = Array.length rungs in
                    Spot_cost.uniform_plan Spot_cost.Spot rungs
                    :: Spot_cost.uniform_plan Spot_cost.On_demand rungs
                    :: (if k >= 4 then
                          List.map
                            (fun frac ->
                              Spot_cost.make_plan ~lengths:rungs
                                ~tiers:(cut_tiers k (max 1 (min (k - 1) (k * frac / 4)))))
                            [ 1; 2; 3 ]
                        else []))
              (Spot_plan.chunk_grid regime ~upper)
          in
          let flips =
            let p = sol.Solver.plan in
            let k = Array.length p.Spot_cost.lengths in
            if k <= 64 && Spot_cost.strictly_increasing p then
              List.init k (fun i ->
                  Spot_cost.make_plan ~lengths:p.Spot_cost.lengths
                    ~tiers:
                      (Array.mapi
                         (fun j t ->
                           if j <> i then t
                           else
                             match t with
                             | Spot_cost.Spot -> Spot_cost.On_demand
                             | Spot_cost.On_demand -> Spot_cost.Spot)
                         p.Spot_cost.tiers))
            else []
          in
          Alcotest.(check bool) (cell ^ ": ladders scored") true (ladders <> []);
          List.iteri
            (fun i plan ->
              check_nodes ~what:(Printf.sprintf "%s plan %d" cell i) ~disc_n ~eps regime m_hpc d
                plan)
            (thresholds @ ladders @ flips);
          let picked = Spot_cost.expected_cost ~disc_n ~eps regime m_hpc d sol.Solver.plan in
          if not (same_bits picked sol.Solver.spot_cost) then
            Alcotest.failf "%s: reported cost %.17g <> evaluator %.17g" cell
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

(* The per-size flat-memo scorer is the hashtable recursion, bit for
   bit, on both recoveries. *)
let prop_flat_oracle_bit_for_bit =
  QCheck.Test.make ~count:300 ~name:"per-size oracle matches the hashtable oracle bit for bit"
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let regime =
        Spot_cost.make_regime ~recovery:c.recovery ~price_ratio:c.price_ratio
          ~revocation_rate:c.revocation_rate ()
      in
      let plan = Spot_cost.make_plan ~lengths:c.lengths ~tiers:c.tiers in
      let d = snd oracle_laws.(c.law) in
      let got = Spot_flat_oracle.expected_cost ~disc_n:24 ~eps:1e-6 regime m_hpc d plan in
      let want = Spot_oracle.expected_cost ~disc_n:24 ~eps:1e-6 regime m_hpc d plan in
      if not (same_bits got want) then
        QCheck.Test.fail_reportf "flat memo %.17g <> hashtable %.17g" got want;
      true)

let prop_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"evaluator matches the oracles: degenerate bit for bit, nodes within 1e-10"
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let regime =
        Spot_cost.make_regime ~recovery:c.recovery ~price_ratio:c.price_ratio
          ~revocation_rate:c.revocation_rate ()
      in
      let plan = Spot_cost.make_plan ~lengths:c.lengths ~tiers:c.tiers in
      check_against_oracles ~what:"case" ~disc_n:24 ~eps:1e-6 regime m_hpc
        (snd oracle_laws.(c.law)) plan;
      true)

(* ------------------------------------------------------------------ *)
(* Discretization error on the spot-savings sweep: each cell's winner  *)
(* and on-demand floor, as the sweep scores them (disc_n 400), against *)
(* the per-size evaluator at disc_n 4000.                              *)
(* ------------------------------------------------------------------ *)

(* The per-size evaluator's midpoint grid misses the cost's jumps: at
   disc_n 4000 it still differs from its own disc_n 16000 value by up to
   2.4e-4 on the convergence table's rows (CHANGES.md), while the
   lattice at disc_n 500 sits within 5.4e-5 of the lattice at 64000. The
   sweep's winners and floor land 6e-5 to 1.5e-4 above the disc_n 4000
   oracle. *)
let sweep_rel = 2e-4

(* (MTBF h, price ratio, winner rungs, winner chunk h, all spot?, the
   winner's Spot_flat_oracle.expected_cost ~disc_n:4000 ~eps:1e-8). The
   oracle takes ~1 s a plan, so the winners' values are pinned here;
   the floor's is recomputed. A change of winner fails the shape check
   and needs these numbers regenerated. *)
let sweep_winners =
  [
    (5.0, 0.2, 42, 8.5, true, 40.65283197687021);
    (5.0, 0.3, 42, 8.5, true, 43.688380649643484);
    (5.0, 0.5, 42, 8.5, true, 49.759477995190046);
    (5.0, 0.8, 42, 8.5, false, 54.617236404795342);
    (20.0, 0.2, 18, 20.0, true, 34.0822820177276);
    (20.0, 0.3, 42, 8.5, true, 37.455718165700773);
    (20.0, 0.5, 42, 8.5, true, 43.006340384665108);
    (20.0, 0.8, 42, 8.5, true, 51.332273713111604);
    (100.0, 0.2, 42, 8.5, true, 33.362712114173071);
    (100.0, 0.3, 42, 8.5, true, 36.074218105910269);
    (100.0, 0.5, 42, 8.5, true, 41.497230089384672);
    (100.0, 0.8, 42, 8.5, true, 49.63174806459628);
  ]

let test_sweep_within_tolerance () =
  let d = Distributions.Lognormal.default in
  let eps = 1e-8 and disc_n = 400 in
  let cfg = Experiments.Config.paper in
  let budget =
    Solver.override ~m:cfg.Experiments.Config.m ~n:cfg.Experiments.Config.n_mc
      ~disc_n:cfg.Experiments.Config.disc_n Solver.default_budget
  in
  let head =
    match Solver.solve ~budget ~seed:cfg.Experiments.Config.seed m_hpc d with
    | Ok sol -> sol.Solver.head
    | Error e -> Alcotest.failf "base solve: %s" (Solver.error_to_string e)
  in
  let upper = SC.Discretize.truncation_point ~eps d in
  let within what got want =
    if not (abs_float (got -. want) <= sweep_rel *. want) then
      Alcotest.failf "%s: %.17g vs oracle %.17g (rel %.2e)" what got want
        ((got -. want) /. want)
  in
  let floor_oracle = Hashtbl.create 4 in
  List.iter
    (fun (mtbf, price_ratio, rungs, chunk, all_spot, oracle) ->
      let cell = Printf.sprintf "mtbf %gh / price %g" mtbf price_ratio in
      let regime =
        Spot_cost.make_regime ~recovery:snapshot ~price_ratio ~revocation_rate:(1.0 /. mtbf) ()
      in
      let a = Spot_plan.assign ~disc_n regime m_hpc d head in
      let p = a.Spot_plan.plan in
      let k = Array.length p.Spot_cost.lengths in
      let shape =
        k = rungs
        && Array.for_all (same_bits chunk) p.Spot_cost.lengths
        && Spot_cost.spot_slots p = if all_spot then k else 0
      in
      if not shape then Alcotest.failf "%s: the winner changed" cell;
      within (cell ^ " winner") a.Spot_plan.cost oracle;
      (* The floor: the cheapest all-on-demand candidate. *)
      let eval = Spot_cost.evaluator ~disc_n ~eps regime m_hpc d in
      let floor =
        Spot_cost.uniform_plan Spot_cost.On_demand head
        :: List.filter_map
             (fun c ->
               Option.map (Spot_cost.uniform_plan Spot_cost.On_demand)
                 (Spot_plan.ladder_lengths regime ~upper c))
             (Spot_plan.chunk_grid regime ~upper)
        |> List.map (fun plan -> (eval plan, plan))
        |> List.fold_left (fun acc c -> if fst c < fst acc then c else acc) (infinity, p)
      in
      Alcotest.(check bool) (cell ^ ": floor found") true
        (same_bits (fst floor) a.Spot_plan.on_demand_cost);
      let key = (Array.length (snd floor).Spot_cost.lengths, (snd floor).Spot_cost.lengths.(0)) in
      let want =
        match Hashtbl.find_opt floor_oracle key with
        | Some v -> v
        | None ->
            let v = Spot_flat_oracle.expected_cost ~disc_n:4000 ~eps regime m_hpc d (snd floor) in
            Hashtbl.replace floor_oracle key v;
            v
      in
      within (cell ^ " floor") a.Spot_plan.on_demand_cost want)
    sweep_winners

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

(* As the revocation rate goes to 0, a restart plan's cost moves away
   from its rate-0 cost linearly in the rate. The shift scaled by the
   rate must be the same at 1e-10 and 1e-12 as at 1e-8: a window
   billing that cancels at small rates breaks this by orders of
   magnitude. *)
let test_restart_small_rates_linear () =
  let d = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let plan = Spot_cost.uniform_plan Spot_cost.Spot (head_of d) in
  let cost revocation_rate =
    Spot_cost.expected_cost
      (Spot_cost.make_regime ~price_ratio:0.3 ~revocation_rate ())
      m_hpc d plan
  in
  let c0 = cost 0.0 in
  let slope rate = (cost rate -. c0) /. c0 /. rate in
  let reference = slope 1e-8 in
  Alcotest.(check bool) "the cost rises with the rate" true (reference > 0.0);
  List.iter
    (fun rate ->
      let s = slope rate in
      if not (abs_float (s -. reference) <= 0.01 *. reference) then
        Alcotest.failf "rate %g: relative shift / rate %.6g, at 1e-8 %.6g" rate
          s reference)
    [ 1e-10; 1e-12 ]

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
          Alcotest.test_case "spot workload plans: lattice nodes match the per-size oracle"
            `Quick test_oracle_workload_plans;
          QCheck_alcotest.to_alcotest prop_flat_oracle_bit_for_bit;
          QCheck_alcotest.to_alcotest prop_matches_oracle;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "sweep winners and floors against the disc_n 4000 oracle" `Quick
            test_sweep_within_tolerance;
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
          Alcotest.test_case "small revocation rates shift the cost linearly"
            `Quick test_restart_small_rates_linear;
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
