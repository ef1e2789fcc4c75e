type outcome = {
  text : string;
  sanity : (string * bool) list;
  json : Stochobs.Json.t option;
}

type t = {
  name : string;
  title : string;
  doc : string;
  run : quick:bool -> log:Stochobs.Log.t -> outcome;
}

let config ~quick = if quick then Config.quick else Config.paper

(* An entry whose outcome is its module's own [to_string] and [sanity],
   with no JSON artefact. [run cfg quick log] runs the module. *)
let entry name title doc run to_string sanity =
  let run ~quick ~log =
    let t = run (config ~quick) quick log in
    { text = to_string t; sanity = sanity t; json = None }
  in
  { name; title; doc; run }

(* Table 4's sanity compares each discretization against the
   brute-force column of Table 2. [Config.rng_for] streams are
   label-derived, so this run is the same table the [table2] entry
   prints. *)
let table4 ~quick ~log:_ =
  let cfg = config ~quick in
  let t = Table4.run ~cfg () in
  let t2 = Table2.run ~cfg () in
  let brute_force name =
    let row = List.find (fun r -> r.Table2.dist_name = name) t2.Table2.rows in
    row.Table2.values.(0)
  in
  { text = Table4.to_string t; sanity = Table4.sanity t ~brute_force; json = None }

(* Quick mode also trims the Monte-Carlo replications and the
   assignment discretization, not just the solver budget. *)
let spot_savings ~quick ~log =
  let module S = Spot_savings in
  let module J = Stochobs.Json in
  let cfg = config ~quick in
  let t =
    if quick then
      S.run ~cfg ~log ~ratios:[ 0.3; 0.8 ] ~mc_reps:4000 ~assign_disc_n:300 ()
    else S.run ~cfg ~log ()
  in
  let num v = J.Num v in
  let cell_json c =
    J.Obj
      [
        ("mtbf_hours", num c.S.mtbf);
        ("price_ratio", num c.S.price_ratio);
        ("on_demand", num c.S.on_demand);
        ("naive_spot", num c.S.naive_spot);
        ("checkpointed", num c.S.checkpointed);
        ("spot_slots", num (float_of_int c.S.spot_slots));
        ("slots", num (float_of_int c.S.slots));
        ("savings", num c.S.savings);
      ]
  in
  let check_json k =
    J.Obj
      [
        ("mtbf_hours", num k.S.check_mtbf);
        ("price_ratio", num k.S.check_ratio);
        ("analytic", num k.S.analytic);
        ("simulated", num k.S.simulated);
        ("sim_stderr", num k.S.sim_stderr);
        ("rel_err", num k.S.rel_err);
      ]
  in
  let gate =
    match S.find_cell t ~mtbf:20.0 ~ratio:0.3 with
    | Some c -> cell_json c
    | None -> J.Null
  in
  let json =
    J.Obj
      [
        ("workload", J.Str "spot-savings lognormal sweep");
        ("distribution", J.Str t.S.dist_name);
        ("od_plain", num t.S.od_plain);
        ("checkpoint_period", num t.S.checkpoint_period);
        ("checkpoint_cost", num t.S.checkpoint_cost);
        ("restore_cost", num t.S.restore_cost);
        ("head_slots", num (float_of_int (Array.length t.S.head)));
        ("gate", gate);
        ("cells", J.Arr (List.map cell_json t.S.cells));
        ("mc_checks", J.Arr (List.map check_json t.S.mc_checks));
      ]
  in
  { text = S.to_string t; sanity = S.sanity t; json = Some json }

let all =
  [
    entry "table2" "Table 2: normalized expected costs (ReservationOnly)"
      "Reproduce Table 2."
      (fun cfg _ _ -> Table2.run ~cfg ())
      Table2.to_string Table2.sanity;
    entry "table3" "Table 3: best t1 vs quantile guesses (ReservationOnly)"
      "Reproduce Table 3."
      (fun cfg _ _ -> Table3.run ~cfg ())
      Table3.to_string Table3.sanity;
    {
      name = "table4";
      title = "Table 4: discretization convergence (ReservationOnly)";
      doc = "Reproduce Table 4.";
      run = table4;
    };
    entry "fig1" "Figure 1: neuroscience traces and LogNormal fits"
      "Reproduce Figure 1."
      (fun cfg _ _ -> Fig1.run ~cfg ())
      Fig1.to_string Fig1.sanity;
    entry "fig2" "Figure 2: HPC queue wait times and affine fit"
      "Reproduce Figure 2."
      (fun cfg _ _ -> Fig2.run ~cfg ())
      Fig2.to_string Fig2.sanity;
    entry "fig3" "Figure 3: normalized cost vs t1 (gaps = invalid sequences)"
      "Reproduce Figure 3."
      (fun cfg _ _ -> Fig3.run ~cfg ())
      Fig3.to_string Fig3.sanity;
    entry "fig4" "Figure 4: NeuroHPC scenario sweep" "Reproduce Figure 4."
      (fun cfg _ _ -> Fig4.run ~cfg ())
      Fig4.to_string Fig4.sanity;
    entry "s1" "Section 3.5: optimal first reservation for Exp(1)"
      "Compute the Exp(1) optimum of Sect. 3.5."
      (fun cfg _ _ -> Exp_s1.run ~cfg ())
      Exp_s1.to_string Exp_s1.sanity;
    entry "table2x"
      "Extended Table 2: paper strategies + quantile ladders on the extended \
       distributions"
      "Extended Table 2 over the beyond-the-paper distributions."
      (fun cfg _ _ -> Table2x.run ~cfg ())
      Table2x.to_string Table2x.sanity;
    entry "ablation-bf"
      "Ablation: brute-force resolution (M, N) and MC selection optimism"
      "Ablation: brute-force resolution and MC selection optimism."
      (fun cfg _ _ -> Ablation_bf.run ~cfg ())
      Ablation_bf.to_string Ablation_bf.sanity;
    entry "ablation-eps"
      "Ablation: truncation quantile eps for the discretization schemes"
      "Ablation: truncation quantile for the discretization schemes."
      (fun cfg _ _ -> Ablation_eps.run ~cfg ())
      Ablation_eps.to_string Ablation_eps.sanity;
    entry "robustness"
      "Ablation: robustness to model misspecification (fit from k runs)"
      "Ablation: strategies computed from finite-trace fits vs the oracle."
      (fun cfg _ _ -> Robustness.run ~cfg ())
      Robustness.to_string Robustness.sanity;
    entry "robust-solve"
      "Robust solver cascade: tier counts and validation overhead (Table 1)"
      "Bench the robust solver cascade (tier counts, validation overhead) \
       over the Table 1 distributions."
      (fun cfg _ log -> Robust_solve.run ~cfg ~log ())
      Robust_solve.to_string Robust_solve.sanity;
    entry "trace-vs-fit"
      "Ablation: interpolating traces vs fitting a LogNormal (NeuroHPC)"
      "Ablation: interpolated-trace vs LogNormal-fit strategies."
      (fun cfg _ _ -> Trace_vs_fit.run ~cfg ())
      Trace_vs_fit.to_string Trace_vs_fit.sanity;
    entry "cluster-contention"
      "Cluster scheduler: strategies under contention, wait-time loop closed"
      "Strategies on a contended cluster (FCFS and EASY) with the measured \
       wait-time fit fed back into the cost model."
      (fun cfg quick _ ->
        Cluster_contention.run ~cfg ~jobs:(if quick then 500 else 1500) ())
      Cluster_contention.to_string Cluster_contention.sanity;
    entry "fault-tolerance"
      "Fault tolerance: failure rate x {restart, checkpoint} x strategy"
      "Node failure rate x {restart, checkpoint} recovery x strategy on the \
       fault-injecting cluster simulator."
      (fun cfg quick log ->
        Fault_tolerance.run ~cfg ~log ~jobs:(if quick then 120 else 240) ())
      Fault_tolerance.to_string Fault_tolerance.sanity;
    {
      name = "spot-savings";
      title = "Spot savings: checkpointed spot vs on-demand reservations";
      doc =
        "Sweep revocation MTBF x spot price ratio: checkpointed spot vs \
         pure on-demand vs naive spot, with seeded Monte-Carlo validation.";
      run = spot_savings;
    };
  ]

let passed o = List.for_all snd o.sanity

let render e o =
  let b = Buffer.create (String.length o.text + 256) in
  Printf.bprintf b "\n%s\n%s\n" e.title (String.make (String.length e.title) '=');
  Buffer.add_string b o.text;
  (match List.filter (fun (_, ok) -> not ok) o.sanity with
  | [] ->
      Printf.bprintf b "[sanity] all %d qualitative checks hold\n"
        (List.length o.sanity)
  | failed ->
      List.iter (fun (label, _) -> Printf.bprintf b "[sanity] FAILED: %s\n" label)
        failed);
  Buffer.contents b
