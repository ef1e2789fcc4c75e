(* Workload [solve]: the paper's own computation. One op is
   [Robust.Solver.solve] with library defaults (5,000 t1 candidates,
   Monte-Carlo scoring, validation on) on one Table-1 law under one of
   the two cost models; a pass is all 18 pairs in a seeded order. *)

open Common
module Solver = Robust.Solver
module Cm = Stochastic_core.Cost_model

let models = [ ("reservation_only", Cm.reservation_only); ("neuro_hpc", Cm.neuro_hpc) ]

let head_ok head =
  Array.length head > 0
  && Array.for_all Float.is_finite head
  && fst
       (Array.fold_left (fun (ok, prev) t -> (ok && t > prev, t)) (true, neg_infinity) head)

(* Everything a solve returns that must not depend on timing. *)
let exact_of label (s : Solver.solution) =
  let d = s.Solver.diagnostics in
  Printf.sprintf "%s tier=%s degraded=%b evaluations=%d head=%s cost=%s normalized=%s"
    label (Solver.tier_name d.Solver.chosen) (Solver.degraded s) d.Solver.evaluations
    (digest_bits s.Solver.head)
    (bits s.Solver.cost) (bits s.Solver.normalized)

let check (s : Solver.solution) = head_ok s.Solver.head && s.Solver.normalized >= 1.0

(* The Table-1 laws, built through their constructors at set-up time so
   that work moved into law construction shows in [setup_s]. *)
let table1 () =
  let open Distributions in
  [ ("Exponential", Exponential.make ~rate:1.0);
    ("Weibull", Weibull.make ~lambda:1.0 ~kappa:0.5);
    ("Gamma", Gamma_dist.make ~shape:2.0 ~rate:2.0);
    ("Lognormal", Lognormal.make ~mu:3.0 ~sigma:0.5);
    ("TruncatedNormal", Truncated_normal.make ~mu:8.0 ~sigma:(sqrt 2.0) ~lower:0.0);
    ("Pareto", Pareto.make ~nu:1.5 ~alpha:3.0);
    ("Uniform", Uniform_dist.make ~a:10.0 ~b:20.0);
    ("Beta", Beta_dist.make ~alpha:2.0 ~beta:2.0);
    ("BoundedPareto", Bounded_pareto.make ~l:1.0 ~h:20.0 ~alpha:2.1) ]

(* The constructed laws must be Table 1's own. *)
let () =
  List.iter2
    (fun (n, (d : Distributions.Dist.t)) (n', (d' : Distributions.Dist.t)) ->
      if n <> n' || d.Distributions.Dist.name <> d'.Distributions.Dist.name
         || bits d.Distributions.Dist.mean <> bits d'.Distributions.Dist.mean
      then failwith ("solve workload: law differs from Table 1: " ^ n))
    (table1 ()) Distributions.Table1.all

let setup ~seed ~view ~obs:_ =
  let ops =
    Array.of_list
      (List.concat_map
         (fun (law_name, law) ->
           List.map (fun (model_name, model) -> (law_name ^ "/" ^ model_name, model, law)) models)
         (table1 ()))
  in
  Randomness.Rng.shuffle (Randomness.Rng.create ~seed ()) ops;
  let viewed = Array.map (fun (_, _, law) -> view law) ops in
  let last = Array.make (Array.length ops) None in
  let run_op ~obs i =
    let label, model, _ = ops.(i) in
    let latency, r =
      time (fun () ->
          Stochobs.Trace.with_span obs ~attrs:[ ("op", Stochobs.Trace.Str label) ] "perfbench.op"
            (fun () -> Solver.solve ~obs model viewed.(i)))
    in
    match r with
    | Ok s ->
        last.(i) <- Some s;
        { latency; ok = check s; cls = label; exact = exact_of label s;
          norm_cost = s.Solver.normalized; spot_ratio = nan; plans = 0 }
    | Error e ->
        failed ~latency ~cls:label (label ^ " error " ^ Solver.error_to_string e)
  in
  let inputs ~obs:_ =
    let solved =
      List.concat
        (List.mapi
           (fun i (_, model, law) ->
             match last.(i) with
             | Some solution ->
                 [ { Layers.model; law; solution;
                     candidates = Solver.default_budget.Solver.bf_candidates } ]
             | None -> [])
           (Array.to_list ops))
    in
    { Layers.solved; spot = []; lines = [] }
  in
  { Workload.run_op; inputs }

let workload =
  {
    Workload.name = "solve";
    ops_per_pass = 2 * List.length Distributions.Table1.all;
    replicas = 2;
    cheap_setup = true;
    pass_s = 0.65;
    (* 1,008 ops: ten samples beyond the p99. *)
    min_ops = 1008;
    center = `Median;
    clock_free_alloc = true;
    seed_keyed = false;
    setup;
  }
