module Strategy = Stochastic_core.Strategy
module Cost_model = Stochastic_core.Cost_model

type point = { mean_hours : float; std_hours : float; values : float array }
type t = { strategy_names : string array; points : point list }

let default_factors = [| 1.0; 2.0; 4.0; 6.0; 8.0; 10.0 |]

(* VBMQA base moments in hours (Sect. 5.3). *)
let base_mean = 1253.37 /. 3600.0
let base_std = 258.261 /. 3600.0

let law f =
  Distributions.Lognormal.of_moments ~mean:(base_mean *. f) ~std:(base_std *. f)

let run ?(cfg = Config.paper) ?(factors = default_factors) () =
  let strategies = Table2.strategies cfg in
  let point f =
    {
      mean_hours = base_mean *. f;
      std_hours = base_std *. f;
      values =
        Table2.scores ~cost:Cost_model.neuro_hpc
          ~stream:(Printf.sprintf "fig4/%g" f)
          cfg strategies (law f);
    }
  in
  {
    strategy_names =
      Array.of_list (List.map (fun s -> s.Strategy.name) strategies);
    points = List.map point (Array.to_list factors);
  }

let to_string t =
  let header = "mean h (std h)" :: Array.to_list t.strategy_names in
  let rows =
    List.map
      (fun p ->
        Printf.sprintf "%.3f (%.3f)" p.mean_hours p.std_hours
        :: (Array.to_list p.values |> List.map Text_table.fmt_ratio))
      t.points
  in
  Text_table.render ~header rows

let sanity t =
  (* Strategy order fixed by Table2.strategies: 0 = Brute-Force,
     1..4 = mean/median family, 5 = Equal-time, 6 = Equal-prob. *)
  List.concat_map
    (fun p ->
      let bf = p.values.(0) and et = p.values.(5) and ep = p.values.(6) in
      let family_best =
        Float.min
          (Float.min p.values.(1) p.values.(2))
          (Float.min p.values.(3) p.values.(4))
      in
      let label fmt = Printf.sprintf fmt p.mean_hours in
      [
        ( label "mean %.3fh: optimal-structure heuristics agree",
          Float.max (Float.max bf et) ep
          <= Float.min (Float.min bf et) ep *. 1.10 );
        ( label "mean %.3fh: they beat the mean/median family",
          Float.min (Float.min bf et) ep <= family_best );
      ])
    t.points
