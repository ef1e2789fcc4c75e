(* Exact work counts, compared with fixtures/work_counts.txt by exact
   equality. These counts do not change from machine to machine, so a
   change to any of them is a reviewed change to the fixture:
   - the Theorem 5 DP's candidate evaluations in Table 4's 126 solves,
     beside each law's support size n (a scan over every j evaluates
     n (n + 1) / 2);
   - the benchmark's four spot cells through solve_spot with library
     defaults: plans scored and the evaluator states filled (the
     [spot.states] span attribute), and whether the cell degrades to
     all on-demand (its spot cost then equals the on-demand cost,
     ratio exactly 1);
   - the benchmark's 18 solve problems (the Table-1 laws under
     ReservationOnly and NeuroHPC), at the default and the quick
     budget, validation on: the law's pdf/cdf/quantile/sample calls
     (validation's included), [diagnostics.evaluations], and the reads
     of the budget clock, a zero-step fake clock that counts them;
   - Dist_check.run's pdf/cdf/quantile calls per Table-1 law.
   When a change moves a count on purpose, the failure prints the new
   text; it replaces the fixture. *)

module SC = Stochastic_core
module Solver = Robust.Solver

let dp_lines () =
  List.map
    (fun { Paper_solves.label; model; discrete } ->
      let sol = SC.Dp.solve model discrete in
      Printf.sprintf "dp %s: support %d, candidates %d" label
        (Array.length discrete.Distributions.Discrete.values)
        sol.SC.Dp.candidates)
    (Paper_solves.table4 ())

(* Counting view of a law: bit-identical values, one count per pdf,
   cdf, quantile or sample call. Every field is named, so a closure
   added to [Dist.t] breaks this build instead of escaping the counts. *)
type calls = { pdf : int ref; cdf : int ref; quantile : int ref; sample : int ref }

let counted (d : Distributions.Dist.t) =
  let c = { pdf = ref 0; cdf = ref 0; quantile = ref 0; sample = ref 0 } in
  let count r f x = incr r; f x in
  ( c,
    { Distributions.Dist.name = d.name; support = d.support;
      pdf = count c.pdf d.pdf; cdf = count c.cdf d.cdf;
      quantile = count c.quantile d.quantile; mean = d.mean; variance = d.variance;
      sample = count c.sample d.sample; conditional_mean = d.conditional_mean } )

let calls_text c =
  Printf.sprintf "pdf %d, cdf %d, quantile %d, sample %d" !(c.pdf) !(c.cdf)
    !(c.quantile) !(c.sample)

let solve_lines () =
  let models =
    [ ("RO", SC.Cost_model.reservation_only); ("NeuroHPC", SC.Cost_model.neuro_hpc) ]
  and budgets = [ ("default", Solver.default_budget); ("quick", Solver.quick_budget) ] in
  List.concat_map
    (fun (law, d) ->
      List.concat_map
        (fun (model_name, model) ->
          List.map
            (fun (budget_name, budget) ->
              let label = Printf.sprintf "solve %s %s %s" law model_name budget_name in
              let c, d = counted d in
              let reads = ref 0 in
              let clock () = incr reads; 0.0 in
              match Solver.solve ~clock ~budget model d with
              | Error e -> Alcotest.failf "%s: %s" label (Solver.error_to_string e)
              | Ok sol ->
                  Printf.sprintf "%s: %s, evaluations %d, clock reads %d" label
                    (calls_text c) sol.Solver.diagnostics.Solver.evaluations !reads)
            budgets)
        models)
    Distributions.Table1.all

let dist_check_lines () =
  List.map
    (fun (law, d) ->
      let c, d = counted d in
      ignore (Robust.Dist_check.run d);
      Printf.sprintf "dist_check %s: %s" law (calls_text c))
    Distributions.Table1.all

(* The integer after [key] in a trace. *)
let attr_int trace key =
  let key = Printf.sprintf "\"%s\": " key in
  let n = String.length key in
  let rec find i =
    if i + n > String.length trace then Alcotest.failf "no %s in the trace" key
    else if String.sub trace i n = key then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop i =
    if i < String.length trace && trace.[i] >= '0' && trace.[i] <= '9' then stop (i + 1) else i
  in
  int_of_string (String.sub trace start (stop start - start))

(* perfbench's spot workload: LogNormal(3, 0.5) under NeuroHPC with
   snapshot recovery, in four (MTBF h, price ratio) cells. *)
let spot_lines () =
  let d = Distributions.Lognormal.make ~mu:3.0 ~sigma:0.5 in
  let recovery =
    SC.Spot_cost.Snapshot { period = 1.0; snapshot_cost = 0.05; restore_cost = 0.05 }
  in
  List.map
    (fun (mtbf, price_ratio) ->
      let cell = Printf.sprintf "mtbf %gh / price %g" mtbf price_ratio in
      let buf = Buffer.create 1024 in
      let obs = Stochobs.Trace.make (Stochobs.Writer.to_buffer buf) in
      match
        Solver.solve_spot ~obs ~recovery ~price_ratio ~revocation_rate:(1.0 /. mtbf)
          SC.Cost_model.neuro_hpc d
      with
      | Error e -> Alcotest.failf "%s: %s" cell (Solver.error_to_string e)
      | Ok sol ->
          Printf.sprintf "spot %s: plans %d, spot.states %d, all on-demand %b" cell
            sol.Solver.assignment_evaluations
            (attr_int (Buffer.contents buf) "spot.states")
            (Int64.equal
               (Int64.bits_of_float sol.Solver.spot_cost)
               (Int64.bits_of_float sol.Solver.on_demand_cost)))
    [ (5.0, 0.3); (20.0, 0.3); (100.0, 0.3); (5.0, 0.8) ]

let test_fixture () =
  let expected =
    In_channel.with_open_bin "fixtures/work_counts.txt" In_channel.input_all
  in
  let got =
    String.concat "\n" (dp_lines () @ spot_lines () @ solve_lines () @ dist_check_lines ())
    ^ "\n"
  in
  if not (String.equal expected got) then
    Alcotest.failf "work counts moved; the new fixture text is:\n%s" got

let () =
  Alcotest.run "work_counts"
    [ ("fixture", [ Alcotest.test_case "DP candidates, spot plans/states, solve and check calls" `Quick test_fixture ]) ]
