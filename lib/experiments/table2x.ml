module Strategy = Stochastic_core.Strategy

type row = Table2.row = { dist_name : string; values : float array }
type t = Table2.t = { strategy_names : string array; rows : row list }

let run ?(cfg = Config.paper) () =
  Table2.evaluate ~label:"table2x" cfg
    (Table2.strategies cfg
    @ [ Strategy.quantile_ladder ~q:0.25; Strategy.quantile_ladder ~q:0.75 ])
    Distributions.Registry.extras

let to_string t =
  let header = "Distribution" :: Array.to_list t.strategy_names in
  let rows =
    List.map
      (fun r ->
        r.dist_name
        :: (Array.to_list r.values |> List.map Text_table.fmt_ratio))
      t.rows
  in
  Text_table.render ~header rows

let sanity t =
  List.concat_map
    (fun r ->
      let bf = r.values.(0) and et = r.values.(5) and ep = r.values.(6) in
      let best = Array.fold_left Float.min infinity r.values in
      (* The RI/OD bound is a claim about the paper's seven strategies
         (the first seven columns); the extra ladder variants include
         a deliberately weak q = 0.75 one. *)
      let paper7 = Array.sub r.values 0 7 in
      [
        ( Printf.sprintf
            "%s: an optimal-structure heuristic is within noise of the best"
            r.dist_name,
          Float.min (Float.min bf et) ep <= best *. 1.08 );
        ( Printf.sprintf "%s: the paper strategies stay below the RI/OD factor"
            r.dist_name,
          Array.for_all (fun v -> v < 4.5) paper7 );
      ])
    t.rows
