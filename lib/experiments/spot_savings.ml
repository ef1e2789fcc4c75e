module Spot_cost = Stochastic_core.Spot_cost

type cell = {
  mtbf : float;
  price_ratio : float;
  on_demand : float;
  naive_spot : float;
  checkpointed : float;
  spot_slots : int;
  slots : int;
  savings : float;
}

type mc_check = {
  check_mtbf : float;
  check_ratio : float;
  analytic : float;
  simulated : float;
  sim_stderr : float;
  rel_err : float;
}

type t = {
  dist_name : string;
  model : Stochastic_core.Cost_model.t;
  od_plain : float;
  checkpoint_period : float;
  checkpoint_cost : float;
  restore_cost : float;
  head : float array;
  cells : cell list;
  mc_checks : mc_check list;
}

let checkpoint_period = 1.0
let checkpoint_cost = 0.05
let restore_cost = 0.05
let mtbfs = [ 5.0; 20.0; 100.0 ]

let snapshot =
  Spot_cost.Snapshot
    { period = checkpoint_period; snapshot_cost = checkpoint_cost; restore_cost }

let run ?(cfg = Config.paper) ?(log = Stochobs.Log.null)
    ?(ratios = [ 0.2; 0.3; 0.5; 0.8 ]) ?(mc_reps = 20_000)
    ?(assign_disc_n = 400) () =
  let d = Distributions.Lognormal.default in
  let model = Stochastic_core.Cost_model.neuro_hpc in
  let budget =
    Robust.Solver.(
      override ~m:cfg.Config.m ~n:cfg.Config.n_mc ~disc_n:cfg.Config.disc_n
        default_budget)
  in
  let base =
    match Robust.Solver.solve ~budget ~seed:cfg.Config.seed model d with
    | Ok sol -> sol
    | Error e ->
        (* The default LogNormal always solves; a failure here is a
           build break, not a data point. *)
        invalid_arg
          (Printf.sprintf "Spot_savings.run: base solve failed: %s"
             (Robust.Solver.error_to_string e))
  in
  let head = base.Robust.Solver.head in
  let slots = Array.length head in
  Stochobs.Log.infof log "spot_savings: base head %d slots, Eq.(1) cost %.3f"
    slots base.Robust.Solver.cost;
  (* The cheapest ratio at every MTBF gets a trace-driven validation:
     three regimes spanning the revocation spectrum. *)
  let min_ratio = List.fold_left Float.min infinity ratios in
  let cells, checks =
    List.fold_left
      (fun (cells, checks) mtbf ->
        let rate = 1.0 /. mtbf in
        List.fold_left
          (fun (cells, checks) price_ratio ->
            let regime =
              Spot_cost.make_regime ~recovery:snapshot ~price_ratio
                ~revocation_rate:rate ()
            in
            let a =
              Stochastic_core.Spot_plan.assign ~disc_n:assign_disc_n regime
                model d head
            in
            let module SP = Stochastic_core.Spot_plan in
            let naive_regime =
              Spot_cost.make_regime ~price_ratio ~revocation_rate:rate ()
            in
            let naive_spot =
              Spot_cost.expected_cost ~disc_n:assign_disc_n naive_regime model d
                (Spot_cost.uniform_plan Spot_cost.Spot head)
            in
            let plan_slots = Array.length a.SP.plan.Spot_cost.lengths in
            let cell =
              {
                mtbf;
                price_ratio;
                on_demand = a.SP.on_demand_cost;
                naive_spot;
                checkpointed = a.SP.cost;
                spot_slots = Spot_cost.spot_slots a.SP.plan;
                slots = plan_slots;
                savings =
                  (if a.SP.on_demand_cost > 0.0 then
                     1.0 -. (a.SP.cost /. a.SP.on_demand_cost)
                   else 0.0);
              }
            in
            Stochobs.Log.infof log
              "spot_savings: mtbf %.0fh ratio %.2f: ckpt-spot %.3f od %.3f \
               naive %.3f (%d/%d spot)"
              mtbf price_ratio cell.checkpointed cell.on_demand cell.naive_spot
              cell.spot_slots plan_slots;
            let checks =
              (* stochlint: allow FLOAT_EQ — min_ratio is a list element,
                 compared against itself, not a computed float *)
              if price_ratio = min_ratio then begin
                let sim =
                  Scheduler.Spot_sim.run ~reps:mc_reps ~seed:cfg.Config.seed
                    regime model d a.SP.plan
                in
                let simulated = sim.Scheduler.Spot_sim.mean_cost in
                let rel_err =
                  abs_float (a.SP.cost -. simulated)
                  /. Float.max 1e-9 a.SP.cost
                in
                Stochobs.Log.infof log
                  "spot_savings: mc check mtbf %.0fh ratio %.2f: analytic \
                   %.3f vs simulated %.3f (rel %.4f)"
                  mtbf price_ratio a.SP.cost simulated rel_err;
                {
                  check_mtbf = mtbf;
                  check_ratio = price_ratio;
                  analytic = a.SP.cost;
                  simulated;
                  sim_stderr = sim.Scheduler.Spot_sim.stderr;
                  rel_err;
                }
                :: checks
              end
              else checks
            in
            (cell :: cells, checks))
          (cells, checks) ratios)
      ([], []) mtbfs
  in
  {
    dist_name = "LogNormal(3, 0.5)";
    model;
    od_plain = base.Robust.Solver.cost;
    checkpoint_period;
    checkpoint_cost;
    restore_cost;
    head;
    cells = List.rev cells;
    mc_checks = List.rev checks;
  }

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "Spot savings sweep (checkpointed spot vs on-demand)\n";
  Buffer.add_string b
    (Printf.sprintf
       "distribution %s, plain Eq.(1) on-demand cost %.3f, checkpoints every \
        %.2fh (write %.2fh, restore %.2fh), head %d slots\n"
       t.dist_name t.od_plain t.checkpoint_period t.checkpoint_cost
       t.restore_cost (Array.length t.head));
  Buffer.add_string b
    "  mtbf     ratio   on-demand   naive-spot   ckpt-spot   spot-slots  \
     savings\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf
           "  %6.1fh  %5.2f  %10.3f  %11.3f  %10.3f  %6d/%-3d  %6.1f%%\n"
           c.mtbf c.price_ratio c.on_demand c.naive_spot c.checkpointed
           c.spot_slots c.slots (100.0 *. c.savings)))
    t.cells;
  Buffer.add_string b "Monte-Carlo validation (seeded revocation traces):\n";
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf
           "  mtbf %6.1fh ratio %.2f: analytic %.3f vs simulated %.3f +/- \
            %.3f (rel err %.4f)\n"
           k.check_mtbf k.check_ratio k.analytic k.simulated k.sim_stderr
           k.rel_err))
    t.mc_checks;
  Buffer.contents b

let find_cell t ~mtbf ~ratio =
  List.find_opt
    (fun c ->
      abs_float (c.mtbf -. mtbf) < 1e-9 && abs_float (c.price_ratio -. ratio) < 1e-9)
    t.cells

let sanity t =
  let never_worse =
    List.for_all (fun c -> c.checkpointed <= c.on_demand +. 1e-9) t.cells
  in
  let gate =
    match find_cell t ~mtbf:20.0 ~ratio:0.3 with
    | Some c -> c.checkpointed < c.on_demand && c.checkpointed < t.od_plain
    | None -> true (* cell not in this sweep's grid *)
  in
  let checkpoint_beats_naive =
    (* At MTBFs at or below the mean job size, restart-from-scratch
       spot must lose to the checkpointed assignment. *)
    List.for_all
      (fun c -> c.mtbf > 20.0 || c.checkpointed <= c.naive_spot +. 1e-9)
      t.cells
  in
  let monotone_hostility =
    (* At a fixed MTBF, a deeper discount never buys fewer spot slots'
       worth of savings: savings are nonincreasing in the price ratio. *)
    List.for_all
      (fun m ->
        let row =
          List.filter (fun c -> abs_float (c.mtbf -. m) < 1e-9) t.cells
          |> List.map (fun c -> (c.price_ratio, c.savings))
          |> List.sort compare
        in
        let rec ok = function
          | (_, s1) :: ((_, s2) :: _ as rest) -> s1 +. 1e-9 >= s2 && ok rest
          | _ -> true
        in
        ok row)
      (List.sort_uniq compare (List.map (fun c -> c.mtbf) t.cells))
  in
  let mc_ok =
    t.mc_checks <> [] && List.for_all (fun k -> k.rel_err <= 0.02) t.mc_checks
  in
  [
    ("checkpointed-spot never exceeds the on-demand arm", never_worse);
    ("gate cell (ratio 0.3, MTBF 20h) beats both baselines", gate);
    ("checkpointing beats naive spot at harsh MTBFs", checkpoint_beats_naive);
    ("savings nonincreasing in price ratio at fixed MTBF", monotone_hostility);
    ("analytic within 2% of seeded simulation", mc_ok);
  ]
