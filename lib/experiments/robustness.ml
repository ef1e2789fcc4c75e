module B = Stochastic_core.Brute_force
module C = Stochastic_core.Cost_model
module E = Stochastic_core.Expected_cost
module Dist = Distributions.Dist

type point = {
  samples : int;
  mean_normalized : float;
  worst_normalized : float;
  regret : float;
  skipped : int;
}

type t = {
  dist_name : string;
  oracle_normalized : float;
  points : point list;
  skip_reasons : string list;
}

let default_sample_sizes = [| 10; 30; 100; 1000; 5000 |]

let run ?(cfg = Config.paper) ?(sample_sizes = default_sample_sizes)
    ?(replicas = 20) () =
  let truth = Distributions.Lognormal.neuro in
  let cost = C.reservation_only in
  (* Use a moderate grid: each replica runs its own search. *)
  let m = min cfg.Config.m 1000 in
  let oracle = B.search ~m ~evaluator:B.Exact cost truth in
  let oracle_normalized = oracle.B.normalized in
  let budget =
    Robust.Solver.(
      override ~m ~n:cfg.Config.n_mc ~disc_n:cfg.Config.disc_n
        default_budget)
  in
  let skip_reasons = ref [] in
  let points =
    Array.to_list sample_sizes
    |> List.map (fun k ->
           let values =
             List.init replicas (fun r ->
                 let rng =
                   Config.rng_for cfg (Printf.sprintf "robustness/%d/%d" k r)
                 in
                 let trace = Dist.samples truth rng k in
                 match Distributions.Fitting.lognormal_mle trace with
                 | exception Invalid_argument _ ->
                     (* Degenerate tiny trace: fall back to the naive
                        single-reservation-at-max strategy. *)
                     let mx = Array.fold_left Float.max 0.0 trace in
                     let seq =
                       Stochastic_core.Sequence.sanitize
                         ~support:truth.Dist.support
                         (List.to_seq [ 2.0 *. mx ])
                     in
                     Some
                       (E.normalized cost truth
                          ~cost:(E.exact cost truth seq))
                 | fit -> (
                     let fitted = Distributions.Fitting.to_dist fit in
                     (* The fitted law goes through the validated,
                        budgeted cascade: a pathological fit becomes a
                        typed skip, not a crash or a poisoned mean. *)
                     match Robust.Solver.solve ~budget ~exact:true cost fitted with
                     | Ok sol ->
                         (* Replay the fitted-model sequence against
                            the true distribution. *)
                         Some
                           (E.normalized cost truth
                              ~cost:
                                (E.exact cost truth
                                   sol.Robust.Solver.sequence))
                     | Error e ->
                         skip_reasons :=
                           Printf.sprintf "k=%d replica %d (%s): %s" k r
                             fitted.Dist.name
                             (Robust.Solver.error_to_string e)
                           :: !skip_reasons;
                         None))
           in
           let kept = List.filter_map Fun.id values in
           let skipped = replicas - List.length kept in
           let mean_normalized =
             if kept = [] then nan else Numerics.Stats.mean (Array.of_list kept)
           in
           let worst_normalized = List.fold_left Float.max neg_infinity kept in
           {
             samples = k;
             mean_normalized;
             worst_normalized;
             regret = mean_normalized -. oracle_normalized;
             skipped;
           })
  in
  {
    dist_name = truth.Dist.name;
    oracle_normalized;
    points;
    skip_reasons = List.rev !skip_reasons;
  }

let to_string t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "true law: %s; oracle normalized cost %.4f\n" t.dist_name
       t.oracle_normalized);
  Buffer.add_string buf
    "trace size   mean normalized   worst replica   regret vs oracle   skipped\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%10d %17.4f %15.4f %18.4f %9d\n" p.samples
           p.mean_normalized p.worst_normalized p.regret p.skipped))
    t.points;
  if t.skip_reasons <> [] then begin
    Buffer.add_string buf "skipped replicas (typed solver errors):\n";
    List.iter
      (fun r -> Buffer.add_string buf (Printf.sprintf "  %s\n" r))
      t.skip_reasons
  end;
  Buffer.contents buf

let sanity t =
  match (t.points, List.rev t.points) with
  | first :: _, last :: _ ->
      [
        ( "regret shrinks from the smallest to the largest trace",
          last.regret <= first.regret +. 1e-9 );
        ( "5000-run traces (the paper's size) give near-oracle strategies",
          last.regret < 0.02 );
        ("oracle is never beaten on average", first.regret > -0.02);
        ( "well-sized traces never need a skip",
          last.skipped = 0 );
      ]
  | _ -> []
