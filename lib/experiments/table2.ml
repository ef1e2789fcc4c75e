module Strategy = Stochastic_core.Strategy
module Cost_model = Stochastic_core.Cost_model
module Discretize = Stochastic_core.Discretize

type row = { dist_name : string; values : float array }
type t = { strategy_names : string array; rows : row list }

let strategies (cfg : Config.t) =
  [
    Strategy.brute_force ~m:cfg.Config.m ~n:cfg.Config.n_mc ~seed:cfg.Config.seed ();
    Strategy.mean_by_mean;
    Strategy.mean_stdev;
    Strategy.mean_doubling;
    Strategy.median_by_median;
    Strategy.dp_discretized ~eps:cfg.Config.eps ~scheme:Discretize.Equal_time
      ~n:cfg.Config.disc_n ();
    Strategy.dp_discretized ~eps:cfg.Config.eps
      ~scheme:Discretize.Equal_probability ~n:cfg.Config.disc_n ();
  ]

let scores ?(cost = Cost_model.reservation_only) ~stream (cfg : Config.t)
    strategies d =
  (* Common random numbers: one evaluation sample set per law, shared
     by all strategies, so that ranking differences reflect the
     sequences rather than the draws. *)
  let samples =
    Distributions.Dist.samples d (Config.rng_for cfg stream) cfg.Config.n_mc
  in
  Numerics.Stats.sort samples;
  Array.of_list
    (List.map
       (fun s -> Strategy.evaluate_on cost d ~sorted_samples:samples s)
       strategies)

let evaluate ~label cfg strategies laws =
  {
    strategy_names =
      Array.of_list (List.map (fun s -> s.Strategy.name) strategies);
    rows =
      List.map
        (fun (dist_name, d) ->
          let stream = label ^ "/" ^ dist_name in
          { dist_name; values = scores ~stream cfg strategies d })
        laws;
  }

let run ?(cfg = Config.paper) () =
  evaluate ~label:"table2" cfg (strategies cfg) Distributions.Table1.all

let to_string t =
  let header = "Distribution" :: Array.to_list t.strategy_names in
  let rows =
    List.map
      (fun r ->
        let bf = r.values.(0) in
        r.dist_name
        :: (Array.to_list r.values
           |> List.mapi (fun i v ->
                  if i = 0 then Text_table.fmt_ratio v
                  else
                    Printf.sprintf "%s (%.2f)" (Text_table.fmt_ratio v)
                      (v /. bf))))
      t.rows
  in
  Text_table.render ~header rows

let sanity t =
  let checks = ref [] in
  let add label ok = checks := (label, ok) :: !checks in
  List.iter
    (fun r ->
      let bf = r.values.(0) in
      let below4 = Array.for_all (fun v -> v < 4.5) r.values in
      add (Printf.sprintf "%s: all ratios below the RI/OD factor" r.dist_name)
        below4;
      (* Brute force is within Monte-Carlo noise (12%) of the best
         strategy of the row. *)
      let best = Array.fold_left Float.min infinity r.values in
      add
        (Printf.sprintf "%s: Brute-Force competitive with the best"
           r.dist_name)
        (bf <= best *. 1.12))
    t.rows;
  List.rev !checks
