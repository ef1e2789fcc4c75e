(* Workload [spot]: the revocation-aware planner, ROADMAP item 2's hot
   path. One op is [Robust.Solver.solve_spot] with library defaults
   (disc_n 500) on LogNormal(3, 0.5) under NeuroHPC with snapshot
   recovery; a pass is the four (MTBF, price ratio) cells in a seeded
   order. The (5 h, 0.8) cell is hostile: the plan must degrade to all
   on-demand. *)

open Common
module Solver = Robust.Solver
module Spot_cost = Stochastic_core.Spot_cost

let cells = [ (5.0, 0.3); (20.0, 0.3); (100.0, 0.3); (5.0, 0.8) ]
let hostile = (5.0, 0.8)

let exact_of label (s : Solver.spot_solution) =
  let p = s.Solver.plan in
  Printf.sprintf "%s base=[%s] plans=%d lengths=%s tiers=%s spot=%s on_demand=%s" label
    (W_solve.exact_of "" s.Solver.base) s.Solver.assignment_evaluations
    (digest_bits p.Spot_cost.lengths)
    (String.concat ""
       (Array.to_list
          (Array.map
             (function Spot_cost.Spot -> "s" | Spot_cost.On_demand -> "o")
             p.Spot_cost.tiers)))
    (bits s.Solver.spot_cost) (bits s.Solver.on_demand_cost)

let setup ~seed ~view ~obs:_ =
  let law = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let model = Stochastic_core.Cost_model.neuro_hpc in
  let ops =
    Array.of_list
      (List.map
         (fun ((mtbf, ratio) as cell) ->
           let regime =
             Spot_cost.make_regime ~recovery:Layers.recovery ~price_ratio:ratio
               ~revocation_rate:(1.0 /. mtbf) ()
           in
           (Printf.sprintf "mtbf=%gh/ratio=%g" mtbf ratio, cell, regime))
         cells)
  in
  Randomness.Rng.shuffle (Randomness.Rng.create ~seed ()) ops;
  let viewed = view law in
  let omniscient = Stochastic_core.Expected_cost.omniscient model law in
  let last = Array.make (Array.length ops) None in
  let run_op ~obs i =
    let label, ((mtbf, ratio) as cell), _ = ops.(i) in
    let latency, r =
      time (fun () ->
          Stochobs.Trace.with_span obs ~attrs:[ ("op", Stochobs.Trace.Str label) ] "perfbench.op"
            (fun () ->
              Solver.solve_spot ~obs ~recovery:Layers.recovery ~price_ratio:ratio
                ~revocation_rate:(1.0 /. mtbf) model viewed))
    in
    match r with
    | Ok s ->
        last.(i) <- Some s;
        let ratio = s.Solver.spot_cost /. s.Solver.on_demand_cost in
        let ok =
          W_solve.check s.Solver.base
          && s.Solver.spot_cost <= s.Solver.on_demand_cost
          && (cell <> hostile || ratio = 1.0)
        in
        { latency; ok; cls = label; exact = exact_of label s;
          norm_cost = s.Solver.spot_cost /. omniscient; spot_ratio = ratio;
          plans = s.Solver.assignment_evaluations }
    | Error e ->
        failed ~latency ~cls:label (label ^ " error " ^ Solver.error_to_string e)
  in
  let inputs ~obs:_ =
    let done_ =
      List.filter_map
        (fun i -> Option.map (fun s -> (ops.(i), s)) last.(i))
        (List.init (Array.length ops) Fun.id)
    in
    let solved =
      match done_ with
      | [] -> []
      | (_, s) :: _ ->
          [ { Layers.model; law; solution = s.Solver.base;
              candidates = Solver.default_budget.Solver.bf_candidates } ]
    in
    let spot =
      List.map
        (fun ((_, _, regime), (s : Solver.spot_solution)) ->
          let head = s.Solver.base.Solver.head in
          { Layers.regime; s_model = model; s_law = law;
            plans =
              [ s.Solver.plan; Spot_cost.uniform_plan Spot_cost.On_demand head;
                Spot_cost.uniform_plan Spot_cost.Spot head ] })
        done_
    in
    { Layers.solved; spot; lines = [] }
  in
  { Workload.run_op; inputs }

let workload =
  {
    Workload.name = "spot";
    ops_per_pass = List.length cells;
    replicas = 1;
    cheap_setup = true;
    pass_s = 33.0;
    min_ops = 4;
    center = `Geometric_mean;
    clock_free_alloc = true;
    seed_keyed = false;
    setup;
  }
