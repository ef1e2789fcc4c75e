(* Workload [paper]: the paper's artefacts. One op is one of Table 2,
   Table 3, Table 4 and Fig. 4, run with [Config.paper] and then checked
   with its [sanity] claims; a pass is the four in a seeded order, with
   Table 2 before Table 4 because Table 4's claims are stated against
   Table 2's brute-force column. It is the only workload that runs the
   Theorem 5 DP, [Discretize], Table 2's heuristics and lib/experiments. *)

open Common
module E = Experiments

let artefacts = [| "table2"; "table3"; "table4"; "fig4" |]

let all_hold checks = List.for_all snd checks

let exact_of name text = Printf.sprintf "%s %s" name (Digest.to_hex (Digest.string text))

let setup ~seed ~view:_ ~obs:_ =
  let cfg = E.Config.paper in
  let order = Array.copy artefacts in
  Randomness.Rng.shuffle (Randomness.Rng.create ~seed ()) order;
  let pos name =
    let rec find i = if order.(i) = name then i else find (i + 1) in
    find 0
  in
  (let i2 = pos "table2" and i4 = pos "table4" in
   if i4 < i2 then begin
     order.(i2) <- "table4";
     order.(i4) <- "table2"
   end);
  let table2 = ref None in
  let run_op ~obs i =
    let name = order.(i) in
    let latency, (text, ok, norm) =
      time (fun () ->
          Stochobs.Trace.with_span obs ~attrs:[ ("op", Stochobs.Trace.Str name) ] "perfbench.op"
            (fun () ->
              match name with
              | "table2" ->
                  let t = E.Table2.run ~cfg () in
                  table2 := Some t;
                  let bf = List.map (fun r -> r.E.Table2.values.(0)) t.E.Table2.rows in
                  ( E.Table2.to_string t, all_hold (E.Table2.sanity t),
                    mean (Array.of_list bf) )
              | "table3" ->
                  let t = E.Table3.run ~cfg () in
                  (E.Table3.to_string t, all_hold (E.Table3.sanity t), nan)
              | "table4" ->
                  let t = E.Table4.run ~cfg () in
                  let ok =
                    match !table2 with
                    | None -> false
                    | Some t2 ->
                        let brute_force name =
                          (List.find (fun r -> r.E.Table2.dist_name = name) t2.E.Table2.rows)
                            .E.Table2.values.(0)
                        in
                        all_hold (E.Table4.sanity t ~brute_force)
                  in
                  (E.Table4.to_string t, ok, nan)
              | _ ->
                  let t = E.Fig4.run ~cfg () in
                  (E.Fig4.to_string t, all_hold (E.Fig4.sanity t), nan)))
    in
    { latency; ok; cls = name; exact = exact_of name text; norm_cost = norm; spot_ratio = nan;
      plans = 0 }
  in
  (* The paper's laws under ReservationOnly, solved once through the
     cascade, stand for the artefacts' own brute-force inputs in the
     layer timings; their tier spans go to the trace. *)
  let inputs ~obs =
    let model = Stochastic_core.Cost_model.reservation_only in
    let solved =
      List.map
        (fun (_, law) ->
          { Layers.model; law; solution = Layers.solve_or_fail ~obs model law;
            candidates = cfg.E.Config.m })
        Distributions.Table1.all
    in
    { Layers.solved; spot = []; lines = [] }
  in
  { Workload.run_op; inputs }

let workload =
  {
    Workload.name = "paper";
    ops_per_pass = Array.length artefacts;
    replicas = 2;
    cheap_setup = true;
    pass_s = 1.2;
    min_ops = 1;
    center = `Median;
    clock_free_alloc = true;
    seed_keyed = false;
    setup;
  }
