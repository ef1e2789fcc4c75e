module C = Stochastic_core.Cost_model

type row = {
  dist_name : string;
  tier : string;
  rejections : int;
  normalized : float;
  check_seconds : float;
  solve_seconds : float;
  baseline_seconds : float;
}

type t = {
  rows : row list;
  tier_counts : (string * int) list;
  overhead : float;
}

(* Best of [reps] timed runs after one untimed run. A single cold run
   times where the process's first garbage collections land and how
   warm the caches are, not the check or the solve. *)
let reps = 3

let time f =
  let v = f () in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Sys.time () -. t0)
  done;
  (v, !best)

let run ?(cfg = Config.paper) ?(log = Stochobs.Log.null) () =
  let cost = C.reservation_only in
  let budget =
    Robust.Solver.(
      override ~m:cfg.Config.m ~n:cfg.Config.n_mc ~disc_n:cfg.Config.disc_n
        default_budget)
  in
  let total = List.length Distributions.Table1.all in
  let rows =
    Distributions.Table1.all
    |> List.mapi (fun i (name, d) ->
           Stochobs.Log.debugf log "robust-solve: [%d/%d] solving %s" (i + 1)
             total name;
           let _, check_seconds = time (fun () -> Robust.Dist_check.run d) in
           let solved, solve_seconds =
             time (fun () ->
                 Robust.Solver.solve ~budget ~seed:cfg.Config.seed cost d)
           in
           let _, baseline_seconds =
             time (fun () ->
                 Robust.Solver.solve ~budget ~validate:false
                   ~seed:cfg.Config.seed cost d)
           in
           let row =
             match solved with
             | Ok sol ->
                 {
                   dist_name = name;
                   tier =
                     Robust.Solver.tier_name
                       sol.Robust.Solver.diagnostics.Robust.Solver.chosen;
                   rejections =
                     List.length
                       sol.Robust.Solver.diagnostics.Robust.Solver.rejected;
                   normalized = sol.Robust.Solver.normalized;
                   check_seconds;
                   solve_seconds;
                   baseline_seconds;
                 }
             | Error e ->
                 {
                   dist_name = name;
                   tier =
                     Printf.sprintf "FAILED (%s)"
                       (Robust.Solver.error_to_string e);
                   rejections = List.length Robust.Solver.all_tiers;
                   normalized = nan;
                   check_seconds;
                   solve_seconds;
                   baseline_seconds;
                 }
           in
           Stochobs.Log.infof log
             "robust-solve: [%d/%d] %s -> %s (%.3f s solve)" (i + 1) total name
             row.tier row.solve_seconds;
           row)
  in
  let tier_counts =
    List.fold_left
      (fun acc r ->
        match List.assoc_opt r.tier acc with
        | Some n -> (r.tier, n + 1) :: List.remove_assoc r.tier acc
        | None -> (r.tier, 1) :: acc)
      [] rows
    |> List.rev
  in
  let total f = List.fold_left (fun s r -> s +. f r) 0.0 rows in
  let overhead =
    let base = total (fun r -> r.baseline_seconds) in
    if base > 0.0 then total (fun r -> r.check_seconds) /. base else 0.0
  in
  { rows; tier_counts; overhead }

let to_string t =
  let header =
    [ "distribution"; "tier"; "rejections"; "normalized"; "check s";
      "solve s"; "baseline s" ]
  in
  let rows =
    List.map
      (fun r ->
        [
          r.dist_name;
          r.tier;
          string_of_int r.rejections;
          Text_table.fmt_ratio r.normalized;
          Printf.sprintf "%.4f" r.check_seconds;
          Printf.sprintf "%.4f" r.solve_seconds;
          Printf.sprintf "%.4f" r.baseline_seconds;
        ])
      t.rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Text_table.render ~header rows);
  Buffer.add_string buf "tier counts: ";
  Buffer.add_string buf
    (t.tier_counts
    |> List.map (fun (tier, n) -> Printf.sprintf "%s=%d" tier n)
    |> String.concat ", ");
  Buffer.add_string buf
    (Printf.sprintf "\nvalidation overhead: %.2f%% of solve time (target < 5%% \
                     at paper scale)\n"
       (100.0 *. t.overhead));
  Buffer.contents buf

let sanity t =
  [
    ( "every Table 1 row solved",
      List.for_all (fun r -> Float.is_finite r.normalized) t.rows );
    ( "every Table 1 row answered by the primary brute-force tier",
      List.for_all
        (fun r ->
          r.tier = Robust.Solver.tier_name Robust.Solver.Brute_force
          && r.rejections = 0)
        t.rows );
    ( "normalized costs stay below the AWS price factor 4",
      List.for_all (fun r -> r.normalized < 4.0) t.rows );
    ("validation overhead bounded", t.overhead < 0.5);
  ]
