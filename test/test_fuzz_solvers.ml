(* Fuzzer for the robust solver cascade: every solver tier, fed
   pathological distributions, must return either a vetted Ok (finite,
   strictly increasing sequence with finite cost) or a typed Error —
   never an exception, a NaN, or a hang.

   The generator deliberately aims for the numerically nasty corners:
   extreme scales (1e-9 .. 1e9 via Dist.scale), near-point-mass
   truncated normals, heavy tails (Pareto / Frechet with low shape,
   Weibull kappa << 1, LogNormal sigma up to 8), mixtures with
   vanishing components, and empirical laws with tied samples. *)

module Dist = Distributions.Dist
module Solver = Robust.Solver
module Check = Robust.Dist_check

let cost = Stochastic_core.Cost_model.reservation_only

(* Small grids and a hard 2-second guard per solve: 500 cases per tier
   must finish in CI time, and the point is robustness, not optima. *)
let fuzz_budget =
  Solver.(
    override ~m:48 ~n:128 ~disc_n:128 ~max_evaluations:60_000 ~max_seconds:2.0
      quick_budget)

(* ------------------------- the generator -------------------------- *)

let log_uniform lo hi st =
  lo *. exp (QCheck.Gen.float_bound_inclusive 1.0 st *. log (hi /. lo))

let base_dist_gen st =
  let open QCheck.Gen in
  match int_bound 7 st with
  | 0 ->
      let mu = float_range (-5.0) 5.0 st in
      let sigma = float_range 0.05 8.0 st in
      ( Printf.sprintf "LogNormal(%g, %g)" mu sigma,
        Distributions.Lognormal.make ~mu ~sigma )
  | 1 ->
      let lambda = log_uniform 0.1 10.0 st in
      let kappa = float_range 0.08 4.0 st in
      ( Printf.sprintf "Weibull(%g, %g)" lambda kappa,
        Distributions.Weibull.make ~lambda ~kappa )
  | 2 ->
      let h = log_uniform 2.0 1e6 st in
      let alpha = log_uniform 1e-3 5.0 st in
      ( Printf.sprintf "BoundedPareto(1, %g, %g)" h alpha,
        Distributions.Bounded_pareto.make ~l:1.0 ~h ~alpha )
  | 3 ->
      let nu = log_uniform 0.5 5.0 st in
      let alpha = float_range 1.01 3.5 st in
      ( Printf.sprintf "Pareto(%g, %g)" nu alpha,
        Distributions.Pareto.make ~nu ~alpha )
  | 4 ->
      let shape = float_range 1.05 4.0 st in
      let scale = log_uniform 0.1 10.0 st in
      ( Printf.sprintf "Frechet(%g, %g)" shape scale,
        Distributions.Frechet.make ~shape ~scale )
  | 5 ->
      (* Near-point-mass: sigma down to 1e-6 of the mean. *)
      let mu = log_uniform 0.5 100.0 st in
      let sigma = mu *. log_uniform 1e-6 0.5 st in
      ( Printf.sprintf "TruncNormal(%g, %g)" mu sigma,
        Distributions.Truncated_normal.make ~mu ~sigma ~lower:0.0 )
  | 6 ->
      (* Mixture with a vanishing component. *)
      let mu = float_range 0.0 3.0 st in
      let w = log_uniform 1e-12 0.5 st in
      ( Printf.sprintf "Mix(%g | vanish %g)" mu w,
        Distributions.Mixture.make
          [
            (1.0 -. w, Distributions.Lognormal.make ~mu ~sigma:0.5);
            (w, Distributions.Exponential.default);
          ] )
  | _ ->
      (* Empirical with forced ties. *)
      let n = int_range 2 25 st in
      let base = Array.init n (fun _ -> log_uniform 0.01 100.0 st) in
      let dup = int_range 1 5 st in
      let tied =
        Array.init (n + dup) (fun i -> if i < n then base.(i) else base.(0))
      in
      ( Printf.sprintf "Empirical(%d samples, %d ties)" n dup,
        Distributions.Empirical.make tied )

let dist_gen st =
  let name, d =
    try base_dist_gen st
    with _ ->
      (* A constructor refusing a pathological parameter set is itself
         a correct typed rejection; keep fuzzing with a safe law. *)
      ("Exponential(1) [constructor refused]", Distributions.Exponential.default)
  in
  (* Extreme unit scales: nanoseconds to gigaseconds. *)
  if QCheck.Gen.bool st then
    let c = log_uniform 1e-9 1e9 st in
    (Printf.sprintf "scale %g %s" c name, Dist.scale c d)
  else (name, d)

let dist_arb = QCheck.make ~print:fst dist_gen

(* -------------------------- properties ---------------------------- *)

let vet_ok name sol =
  let head = sol.Solver.head in
  if Array.length head = 0 then
    QCheck.Test.fail_reportf "%s: Ok with empty head" name;
  let prev = ref 0.0 in
  Array.iter
    (fun t ->
      if not (Float.is_finite t) then
        QCheck.Test.fail_reportf "%s: non-finite reservation %g" name t;
      if t <= !prev then
        QCheck.Test.fail_reportf "%s: not strictly increasing at %g" name t;
      prev := t)
    head;
  if not (Float.is_finite sol.Solver.cost) then
    QCheck.Test.fail_reportf "%s: non-finite cost %g" name sol.Solver.cost;
  if not (Float.is_finite sol.Solver.normalized) then
    QCheck.Test.fail_reportf "%s: non-finite normalized %g" name
      sol.Solver.normalized;
  (* Exact cost over omniscient is >= 1 up to numerical slack. *)
  if sol.Solver.normalized < 0.99 then
    QCheck.Test.fail_reportf "%s: normalized %g beats the omniscient bound"
      name sol.Solver.normalized;
  true

(* Ok/Error tallies guard against a vacuous suite: if the cascade
   rejected (almost) everything, "never lies" would pass trivially. *)
let oks = Hashtbl.create 8
let errors = Hashtbl.create 8

let tally table key =
  Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let never_lies ~key ~tiers ~validate (name, d) =
  match
    Solver.solve ~budget:fuzz_budget ~tiers ~validate ~seed:7 cost d
  with
  | Ok sol ->
      tally oks key;
      vet_ok name sol
  | Error _ ->
      tally errors key;
      true (* typed rejection is a correct answer *)
  | exception exn ->
      QCheck.Test.fail_reportf "%s: solve raised %s" name
        (Printexc.to_string exn)

let count =
  (* ISSUE floor: >= 500 pathological distributions per solver. *)
  500

let prop_tier tier =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "tier %s never lies" (Solver.tier_name tier))
    dist_arb
    (never_lies ~key:(Solver.tier_name tier) ~tiers:[ tier ] ~validate:false)

let prop_cascade =
  QCheck.Test.make ~count ~name:"validated full cascade never lies" dist_arb
    (never_lies ~key:"cascade" ~tiers:Solver.all_tiers ~validate:true)

let prop_dist_check_total =
  QCheck.Test.make ~count ~name:"dist_check never raises and always reports"
    dist_arb
    (fun (name, d) ->
      match Check.run d with
      | report -> report.Check.probes > 0
      | exception exn ->
          QCheck.Test.fail_reportf "%s: Dist_check.run raised %s" name
            (Printexc.to_string exn))

(* --------------------- deterministic anchors ---------------------- *)

let test_registry_all_valid () =
  List.iter
    (fun (name, d) ->
      let r = Check.run d in
      Alcotest.(check bool)
        (Printf.sprintf "%s passes the self-check" name)
        true (Check.is_valid r))
    (Distributions.Table1.all @ Distributions.Registry.extras)

(* Must run after the qcheck properties (alcotest preserves order). *)
let test_not_vacuous () =
  let get table key = Option.value ~default:0 (Hashtbl.find_opt table key) in
  List.iter
    (fun key ->
      let ok = get oks key and err = get errors key in
      Printf.printf "[fuzz] %-24s Ok %4d / Error %4d\n%!" key ok err;
      Alcotest.(check bool)
        (Printf.sprintf "%s solved a real share of inputs (%d/%d)" key ok
           (ok + err))
        true
        (ok * 5 >= ok + err))
    ("cascade" :: List.map Solver.tier_name Solver.all_tiers)

let test_cascade_deterministic () =
  let d = Distributions.Lognormal.default in
  let solve () =
    match Solver.solve ~budget:fuzz_budget ~seed:11 cost d with
    | Ok sol -> (sol.Solver.cost, sol.Solver.diagnostics.Solver.chosen)
    | Error e -> Alcotest.failf "solve failed: %s" (Solver.error_to_string e)
  in
  let c1, t1 = solve () and c2, t2 = solve () in
  Alcotest.(check (float 0.0)) "same cost on same seed" c1 c2;
  Alcotest.(check bool) "same tier on same seed" true (t1 = t2)

let () =
  let qsuite =
    List.map (fun t -> QCheck_alcotest.to_alcotest t)
      ([ prop_cascade; prop_dist_check_total ]
      @ List.map prop_tier Solver.all_tiers)
  in
  Alcotest.run "fuzz_solvers"
    [
      ("fuzz", qsuite);
      ( "anchors",
        [
          Alcotest.test_case "fuzz coverage not vacuous" `Quick
            test_not_vacuous;
          Alcotest.test_case "registry all valid" `Quick
            test_registry_all_valid;
          Alcotest.test_case "cascade deterministic" `Quick
            test_cascade_deterministic;
        ] );
    ]
