(* Per-layer timings of the traced run. Each function times one public
   entry point of a lib/ layer from outside, on the inputs the workload's
   own ops used. A layer the workload never reaches is timed on the
   reference inputs below, so every traced run reports the whole ledger. *)

open Common
module Dist = Distributions.Dist
module Cm = Stochastic_core.Cost_model
module Solver = Robust.Solver
module Spot_cost = Stochastic_core.Spot_cost
module Trace = Stochobs.Trace

type solved = {
  model : Cm.t;
  law : Dist.t;
  solution : Solver.solution;
  candidates : int;  (** Brute-force grid size the solve used. *)
}

type spot_case = {
  regime : Spot_cost.regime;
  s_model : Cm.t;
  s_law : Dist.t;
  plans : Spot_cost.plan list;  (** Plans the spot op scored. *)
}

type inputs = { solved : solved list; spot : spot_case list; lines : string list }

(* The spot workload's recovery discipline: 1 h snapshot period, 0.05 h
   snapshot and restore. *)
let recovery =
  Spot_cost.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }

(* Spot evaluator discretization, as [Spot_plan.assign]'s defaults. *)
let spot_disc_n = 500
let spot_eps = 1e-8

let solve_or_fail ?obs ?budget ?seed model law =
  match Solver.solve ?obs ?budget ?seed model law with
  | Ok solution -> solution
  | Error e -> failwith ("solve: " ^ Solver.error_to_string e)

(* Reference inputs: LogNormal(3, 0.5) under NeuroHPC, the law of the
   spot workload and of the paper's Fig. 4, with the spot workload's
   (20 h, 0.3) cell and its all-on-demand and all-spot plans. *)
let reference_solved () =
  let law = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let model = Cm.neuro_hpc in
  {
    model;
    law;
    solution = solve_or_fail model law;
    candidates = Solver.default_budget.Solver.bf_candidates;
  }

let reference_spot () =
  let s = reference_solved () in
  let regime =
    Spot_cost.make_regime ~recovery ~price_ratio:0.3 ~revocation_rate:(1.0 /. 20.0) ()
  in
  let head = s.solution.Solver.head in
  {
    regime;
    s_model = s.model;
    s_law = s.law;
    plans =
      [ Spot_cost.uniform_plan Spot_cost.On_demand head;
        Spot_cost.uniform_plan Spot_cost.Spot head ];
  }

let reference_line =
  {|{"kind":"solve","id":1,"dist":{"family":"lognormal","mu":3,"sigma":0.5},"model":"hpc"}|}

(* Seconds per call of [f] over [xs]: the batch is repeated until it
   lasts at least 2 ms, and the median of seven batches is kept. *)
let per_call ~sink name xs f =
  let n = Array.length xs in
  let batch reps =
    time (fun () ->
        for _ = 1 to reps do
          Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
        done)
    |> fst
  in
  let rec calibrate reps =
    if reps >= 1 lsl 20 || batch reps >= 2e-3 then reps else calibrate (2 * reps)
  in
  Trace.with_span sink name (fun () ->
      let reps = calibrate 1 in
      let samples = Array.init 7 (fun _ -> batch reps) in
      median samples /. float_of_int (reps * n))

(* Seconds each input's call takes. *)
let timings ~sink name items f =
  Trace.with_span sink name (fun () ->
      Array.of_list (List.map (fun x -> fst (time (fun () -> ignore (f x)))) items))

let each ~sink name items f = median (timings ~sink name items f)

let grid n lo hi =
  Array.init n (fun i -> lo +. ((hi -. lo) *. (float_of_int i +. 0.5) /. float_of_int n))

let specfun ~sink =
  let module S = Numerics.Specfun in
  let ns name xs f = (name, per_call ~sink name xs f *. 1e9, "ns") in
  [
    ns "specfun.erfc_ns" (grid 64 0.0 6.0) S.erfc;
    ns "specfun.gamma_p_ns" (grid 64 0.0 20.0) (S.gamma_p 2.0);
    ns "specfun.betai_ns" (grid 64 0.0 1.0) (S.betai 2.0 2.0);
    ns "specfun.inverse_betai_ns" (grid 64 0.0 1.0) (S.inverse_betai 2.0 2.0);
  ]

let distributions ~sink laws =
  let ps = grid 64 0.0 1.0 in
  let over name f =
    let per_law =
      List.map
        (fun (d : Dist.t) ->
          let xs = Array.map d.Dist.quantile ps in
          per_call ~sink name (if name = "dist.quantile_ns" then ps else xs) (f d))
        laws
    in
    (name, median (Array.of_list per_law) *. 1e9, "ns")
  in
  [
    over "dist.pdf_ns" (fun d -> d.Dist.pdf);
    over "dist.cdf_ns" (fun d -> d.Dist.cdf);
    over "dist.quantile_ns" (fun d -> d.Dist.quantile);
  ]

let core_solve ~sink solved =
  let t1 s = s.solution.Solver.head.(0) in
  let generate s = Stochastic_core.Recurrence.generate s.model s.law ~t1:(t1 s) in
  let steps =
    List.map
      (fun s -> match generate s with Ok a -> float_of_int (Array.length a) | Error _ -> 0.0)
      solved
  in
  [
    ("recurrence.generate_us", each ~sink "recurrence.generate" solved generate *. 1e6, "us");
    ("recurrence.steps", mean (Array.of_list steps), "count");
    ( "expected_cost.exact_us",
      each ~sink "expected_cost.exact" solved (fun s ->
          Stochastic_core.Expected_cost.exact s.model s.law s.solution.Solver.sequence)
      *. 1e6,
      "us" );
    ( "brute_force.search_ms",
      each ~sink "brute_force.search" solved (fun s ->
          Stochastic_core.Brute_force.search ~m:s.candidates s.model s.law)
      *. 1e3,
      "ms" );
    ( "robust.dist_check_ms",
      each ~sink "robust.dist_check" solved (fun s -> Robust.Dist_check.run s.law) *. 1e3,
      "ms" );
  ]

(* The Theorem 5 path at the paper's 1000 points. *)
let core_dp ~sink solved =
  let disc s =
    Stochastic_core.Discretize.run Stochastic_core.Discretize.Equal_probability ~n:1000 s.law
  in
  let discs = List.map (fun s -> (s, disc s)) solved in
  [
    ("discretize.run_ms", each ~sink "discretize.run" solved disc *. 1e3, "ms");
    ( "dp.solve_ms",
      each ~sink "dp.solve" discs (fun (s, d) -> Stochastic_core.Dp.solve s.model d) *. 1e3,
      "ms" );
  ]

let core_spot ~sink cases =
  let build c =
    Spot_cost.evaluator ~disc_n:spot_disc_n ~eps:spot_eps c.regime c.s_model c.s_law
  in
  let evals =
    List.concat_map (fun c -> let e = build c in List.map (fun p -> (e, p)) c.plans) cases
  in
  [
    ("spot.evaluator_build_ms", each ~sink "spot.evaluator_build" cases build *. 1e3, "ms");
    (* A mean: the chosen plans cost far more to score than the uniform
       heads beside them, and a median would jump between the two. *)
    ( "spot.plan_eval_ms",
      mean (timings ~sink "spot.plan_eval" evals (fun (e, p) -> e p)) *. 1e3,
      "ms" );
  ]

(* Protocol parsing and key quantization on request lines, with the
   key arguments the server derives from [Server.default_config]. *)
let service_front ~sink lines =
  let module P = Stochserve.Protocol in
  let cfg = Stochserve.Server.default_config in
  let b = cfg.Stochserve.Server.budget in
  let lines = Array.of_list lines in
  let keyed =
    Array.to_list lines
    |> List.filter_map (fun l ->
           match P.parse_request l with
           | Ok (_, P.Solve ({ P.dist = P.Lognormal { mu; sigma }; _ } as s)) ->
               let model =
                 match s.P.model with
                 | P.Hpc -> Cm.neuro_hpc
                 | P.Affine { alpha; beta; gamma } -> Cm.make ~alpha ~beta ~gamma ()
               in
               Some (s, model, [ ("mu", mu); ("sigma", sigma) ])
           | _ -> None)
    |> Array.of_list
  in
  let key (s, model, params) =
    Stochserve.Quantize.key ~grid:cfg.Stochserve.Server.grid ~family:"lognormal" ~params
      ~model ~strategy:s.P.strategy ~m:b.Solver.bf_candidates ~n:b.Solver.mc_samples
      ~disc_n:b.Solver.dp_points ~max_evaluations:b.Solver.max_evaluations
      ~seed:(Option.value s.P.seed ~default:cfg.Stochserve.Server.seed)
      ~count:s.P.count ~exact:s.P.exact
  in
  [
    ("service.parse_us", per_call ~sink "service.parse" lines P.parse_request *. 1e6, "us");
    ("service.key_us", per_call ~sink "service.key" keyed key *. 1e6, "us");
  ]

(* Hit, miss and fit latency on a private server, for workloads that
   send no requests: one fit, one cold solve, then the same solve as
   cache hits. *)
let reference_service ~sink =
  Trace.with_span sink "service.reference" @@ fun () ->
  let server =
    Stochserve.Server.create ~metrics:(Stochobs.Metrics.create ())
      Stochserve.Server.default_config
  in
  let call line = fst (time (fun () -> Stochserve.Server.handle_line server line)) in
  let samples =
    Dist.samples (Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5)
      (Randomness.Rng.create ~seed:1 ()) 200
  in
  let fit =
    Printf.sprintf {|{"kind":"fit","id":0,"tenant":"t","samples":[%s]}|}
      (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") samples)))
  in
  let fit_s = call fit in
  let miss_s = call reference_line in
  let hits = Array.init 64 (fun _ -> call reference_line) in
  [
    ("service.hit_us", median hits *. 1e6, "us");
    ("service.miss_ms", miss_s *. 1e3, "ms");
    ("service.fit_ms", fit_s *. 1e3, "ms");
  ]

(* The four paper artefacts, once each, for workloads that run none. *)
let reference_experiments ~sink =
  let module E = Experiments in
  let cfg = E.Config.paper in
  let run name f =
    ("experiments." ^ name ^ "_ms", each ~sink ("experiments." ^ name) [ () ] f *. 1e3, "ms")
  in
  [
    run "table2" (fun () -> ignore (E.Table2.run ~cfg ()));
    run "table3" (fun () -> ignore (E.Table3.run ~cfg ()));
    run "table4" (fun () -> ignore (E.Table4.run ~cfg ()));
    run "fig4" (fun () -> ignore (E.Fig4.run ~cfg ()));
  ]

(* Every input-driven layer timing, falling back to the reference
   inputs where the workload supplied none. *)
let measure ~sink (inputs : inputs) =
  let solved = if inputs.solved <> [] then inputs.solved else [ reference_solved () ] in
  let spot = if inputs.spot <> [] then inputs.spot else [ reference_spot () ] in
  let lines = if inputs.lines <> [] then inputs.lines else [ reference_line ] in
  let laws =
    List.sort_uniq (fun (a : Dist.t) b -> compare a.Dist.name b.Dist.name)
      (List.map (fun s -> s.law) solved)
  in
  specfun ~sink @ distributions ~sink laws @ core_solve ~sink solved @ core_dp ~sink solved
  @ core_spot ~sink spot @ service_front ~sink lines
