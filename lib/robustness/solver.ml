module Dist = Distributions.Dist
module Core_seq = Stochastic_core.Sequence
module Trace = Stochobs.Trace

(* Profiling probes on the global registry (one branch each while
   disabled). Evaluations are counted where the budget already charges
   them, so the metric always agrees with [diagnostics.evaluations]. *)
(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_solves = Stochobs.Metrics.(counter default) "robust.solver.solves"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_evaluations =
  Stochobs.Metrics.(counter default) "robust.solver.evaluations"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_degraded = Stochobs.Metrics.(counter default) "robust.solver.degraded"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_rej_budget =
  Stochobs.Metrics.(counter default) "robust.solver.rejections.budget"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_rej_nonconv =
  Stochobs.Metrics.(counter default) "robust.solver.rejections.non_convergent"

type tier = Brute_force | Dp_equal_probability | Mean_doubling

let tier_name = function
  | Brute_force -> "recurrence-brute-force"
  | Dp_equal_probability -> "equal-probability-dp"
  | Mean_doubling -> "mean-doubling"

let all_tiers = [ Brute_force; Dp_equal_probability; Mean_doubling ]

type budget = {
  bf_candidates : int;
  mc_samples : int;
  dp_points : int;
  max_evaluations : int;
  max_seconds : float;
}

let default_budget =
  {
    bf_candidates = 5000;
    mc_samples = 1000;
    dp_points = 1000;
    max_evaluations = 2_000_000;
    max_seconds = 60.0;
  }

let quick_budget =
  {
    bf_candidates = 300;
    mc_samples = 200;
    dp_points = 200;
    max_evaluations = 200_000;
    max_seconds = 5.0;
  }

type error =
  | Invalid_distribution of Dist_check.report
  | Invalid_parameter of { name : string; detail : string }
  | Non_convergent of { stage : string; detail : string }
  | Budget_exhausted of { stage : string; evaluations : int; elapsed : float }

let error_to_string = function
  | Invalid_distribution r ->
      Printf.sprintf "invalid distribution: %s" (Dist_check.summary r)
  | Invalid_parameter { name; detail } ->
      Printf.sprintf "invalid parameter %s: %s" name detail
  | Non_convergent { stage; detail } ->
      Printf.sprintf "non-convergent in %s: %s" stage detail
  | Budget_exhausted { stage; evaluations; elapsed } ->
      Printf.sprintf
        "budget exhausted in %s after %d evaluations (%.2fs elapsed)" stage
        evaluations elapsed

let pp_error fmt = function
  | Invalid_distribution r ->
      Format.fprintf fmt "invalid distribution:@.%a" Dist_check.pp r
  | e -> Format.fprintf fmt "%s" (error_to_string e)

let exit_code = function
  | Invalid_distribution _ -> 4
  | Non_convergent _ -> 5
  | Budget_exhausted _ -> 6
  | Invalid_parameter _ -> 7

type rejection = { tier : tier; reason : error }

type diagnostics = {
  chosen : tier;
  rejected : rejection list;
  validation : Dist_check.report option;
  evaluations : int;
  elapsed : float;
}

type solution = {
  sequence : Core_seq.t;
  head : float array;
  cost : float;
  normalized : float;
  diagnostics : diagnostics;
}

let degraded s = s.diagnostics.rejected <> []

(* ------------------------------------------------------------------ *)

(* Internal control flow: a tier aborts with [Tier_fail]; the cascade
   catches it, records the rejection and moves on. *)
exception Tier_fail of error

type state = {
  budget : budget;
  clock : Stochobs.Clock.t;
  started : float;
  mutable evaluations : int;
}

let elapsed st = st.clock () -. st.started

(* Each tier owns a slice of the wall clock so that a runaway early
   tier cannot starve its fallbacks: brute force may use the first
   70%, the DP until 90%, mean-doubling and final vetting the rest. *)
let deadline_frac = function
  | Brute_force -> 0.70
  | Dp_equal_probability -> 0.90
  | Mean_doubling -> 1.0

let over_deadline st tier =
  elapsed st > deadline_frac tier *. st.budget.max_seconds

let fail_budget st stage =
  (* stochlint: allow EXN_IN_CORE — Tier_fail is internal control flow; run_tier catches it and returns a typed Error *)
  raise
    (Tier_fail
       (Budget_exhausted
          { stage; evaluations = st.evaluations; elapsed = elapsed st }))

let spend st ~stage n =
  st.evaluations <- st.evaluations + n;
  Stochobs.Metrics.add m_evaluations n;
  if st.evaluations > st.budget.max_evaluations then fail_budget st stage

let fail_non_convergent stage detail =
  (* stochlint: allow EXN_IN_CORE — Tier_fail is internal control flow; run_tier catches it and returns a typed Error *)
  raise (Tier_fail (Non_convergent { stage; detail }))

(* ------------------------------------------------------------------ *)
(* Vetting: whatever a tier produced must be a provably sane
   reservation sequence with a finite exact expected cost.            *)

let coverage = Stochastic_core.Recurrence.coverage
let head_limit = 20_000

let vet st ~stage cost_model d seq =
  let b = Dist.upper d in
  let stop t =
    if Dist.is_bounded d then t >= b
    else
      let f = try d.Dist.cdf t with _ -> nan in
      (* A NaN cdf must not make the walk run forever. *)
      (not (Float.is_finite f)) || f >= coverage
  in
  let head = Core_seq.prefix_until ~limit:head_limit stop seq in
  spend st ~stage (Array.length head);
  if Array.length head = 0 then fail_non_convergent stage "empty sequence";
  let prev = ref 0.0 in
  Array.iter
    (fun t ->
      if not (Float.is_finite t) then
        fail_non_convergent stage
          (Printf.sprintf "sequence contains the non-finite value %g" t);
      if t <= !prev then
        fail_non_convergent stage
          (Printf.sprintf "sequence not strictly increasing at %g" t);
      prev := t)
    head;
  let last = head.(Array.length head - 1) in
  let covered =
    if Dist.is_bounded d then last >= b -. (1e-9 *. Float.max 1.0 b)
    else
      match d.Dist.cdf last with
      | f -> Float.is_finite f && f >= coverage
      | exception _ -> false
  in
  if not covered then
    fail_non_convergent stage
      (Printf.sprintf
         "sequence stalled at %g without covering the %g quantile" last
         coverage);
  let cost =
    match Stochastic_core.Expected_cost.exact cost_model d seq with
    | c -> c
    | exception Core_seq.Not_covered t ->
        fail_non_convergent stage
          (Printf.sprintf "exact cost evaluation not covered at t = %g" t)
    | exception exn ->
        fail_non_convergent stage
          (Printf.sprintf "exact cost evaluation raised %s"
             (Printexc.to_string exn))
  in
  if not (Float.is_finite cost) then
    fail_non_convergent stage
      (Printf.sprintf "expected cost is %g" cost);
  let omniscient = Stochastic_core.Expected_cost.omniscient cost_model d in
  if not (Float.is_finite omniscient && omniscient > 0.0) then
    fail_non_convergent stage
      (Printf.sprintf "omniscient baseline is %g" omniscient);
  (head, cost, cost /. omniscient)

(* ------------------------------------------------------------------ *)
(* Tier 1: recurrence-driven brute force (Sect. 4.1): the library's one
   t1 scan, charged candidate by candidate against the evaluation and
   wall-clock budgets; its typed per-candidate stops feed the
   rejection detail.                                                  *)

let run_brute_force st ~exact ~seed cost_model d =
  let stage = tier_name Brute_force in
  let lo, hi =
    match Stochastic_core.Bounds.search_interval cost_model d with
    | bounds -> bounds
    | exception Invalid_argument msg ->
        fail_non_convergent (stage ^ "/bounds") msg
    | exception exn ->
        fail_non_convergent (stage ^ "/bounds") (Printexc.to_string exn)
  in
  if not (Float.is_finite lo && Float.is_finite hi && hi > lo) then
    fail_non_convergent (stage ^ "/bounds")
      (Printf.sprintf "degenerate search interval (%g, %g]" lo hi);
  let scoring =
    if exact then Stochastic_core.Expected_cost.Series
    else begin
      let rng = Randomness.Rng.create ~seed () in
      let samples =
        match Dist.samples d rng st.budget.mc_samples with
        | s -> s
        | exception exn ->
            fail_non_convergent (stage ^ "/sampling") (Printexc.to_string exn)
      in
      Array.iter
        (fun x ->
          if not (Float.is_finite x) then
            fail_non_convergent (stage ^ "/sampling")
              (Printf.sprintf "sampler produced %g" x))
        samples;
      Stochastic_core.Expected_cost.sample samples
    end
  in
  let charge () =
    if over_deadline st Brute_force then false
    else (spend st ~stage 1; true)
  in
  let m = st.budget.bf_candidates in
  match Stochastic_core.Brute_force.scan ~charge scoring cost_model d ~lo ~hi ~m with
  | { best = Some (t1, _); _ } -> Stochastic_core.Recurrence.sequence cost_model d ~t1
  | { candidates; _ } when candidates < m -> fail_budget st stage
  | t ->
      fail_non_convergent stage
        (Printf.sprintf
           "0/%d candidates yielded a valid sequence (density underflow %d, \
            non-increasing %d, non-finite %d, too long %d, evaluation failed \
            %d)"
           m t.underflow t.non_increasing t.non_finite t.too_long t.failed)

(* Tier 2: Theorem 5 DP on the equal-probability discretization
   (Sect. 4.2) — needs no density and no Theorem 2 moment bounds. *)
let run_dp st cost_model d =
  let stage = tier_name Dp_equal_probability in
  if over_deadline st Dp_equal_probability then fail_budget st stage;
  spend st ~stage st.budget.dp_points;
  let discrete =
    match
      Stochastic_core.Discretize.run ~eps:1e-7
        Stochastic_core.Discretize.Equal_probability ~n:st.budget.dp_points d
    with
    | disc -> disc
    | exception exn ->
        fail_non_convergent (stage ^ "/discretize") (Printexc.to_string exn)
  in
  match Stochastic_core.Dp.sequence_for cost_model d discrete with
  | seq -> seq
  | exception exn -> fail_non_convergent stage (Printexc.to_string exn)

(* Tier 3: MEAN-DOUBLING (Sect. 4.3) — needs only a finite positive
   mean; its doubling tail diverges past any quantile. *)
let run_mean_doubling st cost_model d =
  ignore cost_model;
  let stage = tier_name Mean_doubling in
  if over_deadline st Mean_doubling then fail_budget st stage;
  if not (Float.is_finite d.Dist.mean && d.Dist.mean > 0.0) then
    fail_non_convergent stage
      (Printf.sprintf "mean %g is not finite and positive" d.Dist.mean);
  Stochastic_core.Heuristics.mean_doubling d

let run_tier st ~exact ~seed cost_model d = function
  | Brute_force -> run_brute_force st ~exact ~seed cost_model d
  | Dp_equal_probability -> run_dp st cost_model d
  | Mean_doubling -> run_mean_doubling st cost_model d

(* ------------------------------------------------------------------ *)

let check_budget_params budget =
  let pos name v =
    if v <= 0 then
      Some
        (Invalid_parameter
           { name; detail = Printf.sprintf "must be positive, got %d" v })
    else None
  in
  match pos "bf_candidates" budget.bf_candidates with
  | Some e -> Some e
  | None -> (
      match pos "mc_samples" budget.mc_samples with
      | Some e -> Some e
      | None -> (
          match pos "dp_points" budget.dp_points with
          | Some e -> Some e
          | None -> (
              match pos "max_evaluations" budget.max_evaluations with
              | Some e -> Some e
              | None ->
                  if
                    (not (Float.is_finite budget.max_seconds))
                    || budget.max_seconds <= 0.0
                  then
                    Some
                      (Invalid_parameter
                         {
                           name = "max_seconds";
                           detail =
                             Printf.sprintf
                               "must be positive and finite, got %g"
                               budget.max_seconds;
                         })
                  else None)))

(* One cascade tier, traced: the span closes with an [outcome]
   attribute of ["accepted"] or ["rejected"] (plus the typed reason),
   so a rejection is a recorded result rather than a span error. *)
let attempt_tier st ~obs ~exact ~seed cost_model d tier =
  Trace.with_span obs
    ~attrs:[ ("tier", Trace.Str (tier_name tier)) ]
    "robust.solver.tier"
    (fun () ->
      let reject reason =
        (match reason with
        | Budget_exhausted _ -> Stochobs.Metrics.incr m_rej_budget
        | _ -> Stochobs.Metrics.incr m_rej_nonconv);
        Trace.annotate obs
          [
            ("outcome", Trace.Str "rejected");
            ("reason", Trace.Str (error_to_string reason));
          ];
        Error reason
      in
      match
        let seq = run_tier st ~exact ~seed cost_model d tier in
        let head, cost, normalized =
          vet st ~stage:(tier_name tier) cost_model d seq
        in
        (seq, head, cost, normalized)
      with
      | (_, _, _, normalized) as r ->
          Trace.annotate obs
            [
              ("outcome", Trace.Str "accepted");
              ("normalized", Trace.Num normalized);
            ];
          Ok r
      | exception Tier_fail reason -> reject reason
      | exception exn ->
          (* Last-resort catch: no exception may escape. *)
          reject
            (Non_convergent
               {
                 stage = tier_name tier;
                 detail =
                   Printf.sprintf "unexpected exception %s"
                     (Printexc.to_string exn);
               }))

let solve ?(obs = Trace.null) ?(clock = Stochobs.Clock.cpu)
    ?(budget = default_budget) ?(tiers = all_tiers) ?(validate = true)
    ?(exact = false) ?(seed = 42) cost_model d =
  match check_budget_params budget with
  | Some e -> Error e
  | None ->
      if tiers = [] then
        Error
          (Invalid_parameter
             { name = "tiers"; detail = "the cascade needs at least one tier" })
      else
        Trace.with_span obs
          ~attrs:
            [
              ("tiers", Trace.Int (List.length tiers));
              ("exact", Trace.Bool exact);
              ("seed", Trace.Int seed);
            ]
          "robust.solver.solve"
        @@ fun () ->
        Stochobs.Metrics.incr m_solves;
        let st = { budget; clock; started = clock (); evaluations = 0 } in
        let validation =
          if validate then Some (Dist_check.run d) else None
        in
        match validation with
        | Some r when not (Dist_check.is_valid r) ->
            Trace.annotate obs
              [ ("outcome", Trace.Str "invalid-distribution") ];
            Error (Invalid_distribution r)
        | _ ->
            let rejected = ref [] in
            let rec cascade = function
              | [] ->
                  Trace.annotate obs [ ("outcome", Trace.Str "exhausted") ];
                  let all_budget =
                    List.for_all
                      (fun r ->
                        match r.reason with
                        | Budget_exhausted _ -> true
                        | _ -> false)
                      !rejected
                  in
                  if all_budget && !rejected <> [] then
                    Error
                      (Budget_exhausted
                         {
                           stage = "cascade";
                           evaluations = st.evaluations;
                           elapsed = elapsed st;
                         })
                  else
                    Error
                      (Non_convergent
                         {
                           stage = "cascade";
                           detail =
                             (List.rev !rejected
                             |> List.map (fun r ->
                                    Printf.sprintf "%s: %s"
                                      (tier_name r.tier)
                                      (error_to_string r.reason))
                             |> String.concat "; ");
                         })
              | tier :: rest -> (
                  match attempt_tier st ~obs ~exact ~seed cost_model d tier with
                  | Ok (seq, head, cost, normalized) ->
                      if !rejected <> [] then Stochobs.Metrics.incr m_degraded;
                      Trace.annotate obs
                        [ ("chosen", Trace.Str (tier_name tier)) ];
                      Ok
                        {
                          sequence = seq;
                          head;
                          cost;
                          normalized;
                          diagnostics =
                            {
                              chosen = tier;
                              rejected = List.rev !rejected;
                              validation;
                              evaluations = st.evaluations;
                              elapsed = elapsed st;
                            };
                        }
                  | Error reason ->
                      rejected := { tier; reason } :: !rejected;
                      cascade rest)
            in
            cascade tiers

(* ------------------------------------------------------------------ *)
(* Two-tier spot front-end: validate the (price_ratio, revocation_rate,
   checkpoint) regime through the typed taxonomy, solve the base
   sequence with the cascade, then run the tier-assignment pass over
   the vetted head.                                                    *)

module Spot_cost = Stochastic_core.Spot_cost
module Spot_plan = Stochastic_core.Spot_plan

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_spot_solves =
  Stochobs.Metrics.(counter default) "robust.solver.spot.solves"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_spot_slots =
  Stochobs.Metrics.(counter default) "robust.solver.spot.spot_slots"

(* stochlint: allow GLOBAL_MUT_STATE — single-domain metrics probe; the multicore fan-out merges per-domain registries *)
let m_spot_all_on_demand =
  Stochobs.Metrics.(counter default) "robust.solver.spot.all_on_demand"

type spot_solution = {
  base : solution;
  regime : Spot_cost.regime;
  plan : Spot_cost.plan;
  spot_cost : float;
  on_demand_cost : float;
  savings : float;
  assignment_evaluations : int;
}

let spot_regime ?(recovery = Spot_cost.Restart) ~price_ratio ~revocation_rate () =
  let bad name fmt_detail = Error (Invalid_parameter { name; detail = fmt_detail }) in
  if not (Float.is_finite price_ratio && price_ratio > 0.0 && price_ratio <= 1.0)
  then
    bad "price_ratio"
      (Printf.sprintf "must be finite in (0, 1], got %g" price_ratio)
  else if not (Float.is_finite revocation_rate && revocation_rate >= 0.0) then
    bad "revocation_rate"
      (Printf.sprintf "must be finite and >= 0, got %g" revocation_rate)
  else
    match Stochastic_core.Attempt.validate recovery with
    | Error (name, detail) -> bad name detail
    | Ok recovery -> Ok (Spot_cost.make_regime ~recovery ~price_ratio ~revocation_rate ())

let solve_spot ?(obs = Trace.null) ?clock ?budget ?tiers ?validate ?exact ?seed
    ?recovery ?(disc_n = 500) ~price_ratio ~revocation_rate cost_model d =
  if disc_n <= 0 then
    Error
      (Invalid_parameter
         {
           name = "disc_n";
           detail = Printf.sprintf "must be positive, got %d" disc_n;
         })
  else
    match spot_regime ?recovery ~price_ratio ~revocation_rate () with
    | Error e -> Error e
    | Ok regime -> (
        match
          solve ~obs ?clock ?budget ?tiers ?validate ?exact ?seed cost_model d
        with
        | Error e -> Error e
        | Ok base -> (
            Trace.with_span obs
              ~attrs:
                [
                  ("price_ratio", Trace.Num price_ratio);
                  ("revocation_rate", Trace.Num revocation_rate);
                  ("slots", Trace.Int (Array.length base.head));
                ]
              "robust.solver.spot"
            @@ fun () ->
            Stochobs.Metrics.incr m_spot_solves;
            match Spot_plan.assign ~disc_n regime cost_model d base.head with
            | a ->
                let slots = Spot_cost.spot_slots a.Spot_plan.plan in
                Stochobs.Metrics.add m_spot_slots slots;
                if slots = 0 then Stochobs.Metrics.incr m_spot_all_on_demand;
                let savings =
                  if a.Spot_plan.on_demand_cost > 0.0 then
                    1.0 -. (a.Spot_plan.cost /. a.Spot_plan.on_demand_cost)
                  else 0.0
                in
                Trace.annotate obs
                  [
                    ("spot_slots", Trace.Int slots);
                    ("savings", Trace.Num savings);
                  ];
                Ok
                  {
                    base;
                    regime;
                    plan = a.Spot_plan.plan;
                    spot_cost = a.Spot_plan.cost;
                    on_demand_cost = a.Spot_plan.on_demand_cost;
                    savings;
                    assignment_evaluations = a.Spot_plan.evaluated;
                  }
            | exception exn ->
                (* [assign] on a vetted head cannot raise; keep the
                   never-raises contract anyway. *)
                Trace.annotate obs [ ("outcome", Trace.Str "failed") ];
                Error
                  (Non_convergent
                     {
                       stage = "tier-assignment";
                       detail =
                         Printf.sprintf "unexpected exception %s"
                           (Printexc.to_string exn);
                     })))

let pp_diagnostics fmt diag =
  (match diag.validation with
  | None -> Format.fprintf fmt "validation:   skipped@."
  | Some r -> Format.fprintf fmt "validation:   %s@." (Dist_check.summary r));
  (match diag.validation with
  | Some r when Dist_check.warnings r <> [] ->
      List.iter
        (fun (i : Dist_check.issue) ->
          Format.fprintf fmt "              [warn] %s: %s@." i.id i.detail)
        (Dist_check.warnings r)
  | _ -> ());
  Format.fprintf fmt "solver tier:  %s%s@." (tier_name diag.chosen)
    (if diag.rejected = [] then " (primary)" else " (degraded)");
  List.iter
    (fun r ->
      Format.fprintf fmt "              rejected %s: %s@." (tier_name r.tier)
        (error_to_string r.reason))
    diag.rejected;
  Format.fprintf fmt "budget:       %d evaluations, %.3fs elapsed"
    diag.evaluations diag.elapsed
