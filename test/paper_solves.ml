(* The Theorem 5 DP solves the paper's artefacts run, at their sizes and
   in their order: each discretization scheme of each law, as
   Strategy.dp_discretized builds it with Config.paper's truncation. *)

open Stochastic_core
module E = Experiments

type solve = { label : string; model : Cost_model.t; discrete : Distributions.Discrete.t }

let cfg = E.Config.paper
let schemes = [ Discretize.Equal_time; Discretize.Equal_probability ]

let solves ~artefact model laws ns =
  List.concat_map
    (fun (name, d) ->
      List.concat_map
        (fun scheme ->
          List.map
            (fun n ->
              {
                label =
                  Printf.sprintf "%s %s %s n=%d" artefact name
                    (Discretize.scheme_name scheme) n;
                model;
                discrete = Discretize.run ~eps:cfg.E.Config.eps scheme ~n d;
              })
            ns)
        schemes)
    laws

(* Table 2's Equal-time and Equal-probability columns. *)
let table2 () =
  solves ~artefact:"table2" Cost_model.reservation_only Distributions.Table1.all
    [ cfg.E.Config.disc_n ]

(* Table 4: 9 laws x 2 schemes x 7 sizes, 126 solves. *)
let table4 () =
  let ns = Array.to_list E.Table4.default_ns in
  solves ~artefact:"table4" Cost_model.reservation_only Distributions.Table1.all ns

(* Fig. 4's DP columns: 6 scaled LogNormal laws x 2 schemes. *)
let fig4 () =
  let factors = Array.to_list E.Fig4.default_factors in
  let laws = List.map (fun f -> (Printf.sprintf "x%g" f, E.Fig4.law f)) factors in
  solves ~artefact:"fig4" Cost_model.neuro_hpc laws [ cfg.E.Config.disc_n ]
