(* Tests for the cloud pricing model. *)

module Cl = Platform.Cloud

let close ?(tol = 1e-12) name expected got =
  Alcotest.(check (float tol)) name expected got

(* The paper's reference ratio c_OD / c_RI = 4. *)
let aws_like = Cl.make_pricing ~reserved_hourly:0.25 ~on_demand_hourly:1.0

let test_pricing () =
  Alcotest.(check bool) "bad pricing rejected" true
    (try ignore (Cl.make_pricing ~reserved_hourly:0.0 ~on_demand_hourly:1.0); false
     with Invalid_argument _ -> true)

(* Per-job totals: [c_RI * normalized_cost * E(X)] reserved, [c_OD *
   E(X)] on demand. *)
let test_costs () =
  let d = Distributions.Uniform_dist.default in
  let v = Cl.compare_strategies aws_like d ~normalized_cost:(2.0 /. 3.0) in
  close "reserved cost" 2.5 v.Cl.reserved_total;
  close "on-demand cost" 15.0 v.Cl.on_demand_total;
  let dear = Cl.make_pricing ~reserved_hourly:0.5 ~on_demand_hourly:3.0 in
  let v = Cl.compare_strategies dear d ~normalized_cost:1.2 in
  close "reserved cost scales with c_RI" 9.0 v.Cl.reserved_total;
  close "on-demand cost scales with c_OD" 45.0 v.Cl.on_demand_total;
  close "advantage is their ratio" 5.0 v.Cl.advantage

let test_verdict_reserved_wins () =
  (* Normalized cost 2 with price ratio 4: reservations win 2x. *)
  let d = Distributions.Uniform_dist.default in
  let v = Cl.compare_strategies aws_like d ~normalized_cost:2.0 in
  (* 2 x E(X) = 30 reserved hours at 0.25; E(X) = 15 on-demand hours
     at 1.0. *)
  close "reserved cost" 7.5 v.Cl.reserved_total;
  close "on-demand cost" 15.0 v.Cl.on_demand_total;
  close "advantage" 2.0 v.Cl.advantage;
  Alcotest.(check bool) "use reserved" true v.Cl.use_reserved

let test_verdict_on_demand_wins () =
  (* Normalized cost above the price ratio: stay on demand. *)
  let d = Distributions.Uniform_dist.default in
  let v = Cl.compare_strategies aws_like d ~normalized_cost:5.0 in
  Alcotest.(check bool) "on demand wins" false v.Cl.use_reserved;
  Alcotest.(check bool) "advantage below 1" true (v.Cl.advantage < 1.0)

let test_break_even () =
  (* At normalized cost exactly equal to the ratio, the two options
     tie. *)
  let d = Distributions.Exponential.default in
  let v = Cl.compare_strategies aws_like d ~normalized_cost:4.0 in
  close "tie" 1.0 v.Cl.advantage ~tol:1e-9

let prop_paper_criterion =
  QCheck.Test.make ~count:300
    ~name:"use_reserved iff normalized cost below the price ratio"
    QCheck.(pair (float_range 1.0 10.0) (float_range 1.1 8.0))
    (fun (normalized_cost, ratio) ->
      let p = Cl.make_pricing ~reserved_hourly:1.0 ~on_demand_hourly:ratio in
      let d = Distributions.Exponential.default in
      let v = Cl.compare_strategies p d ~normalized_cost in
      v.Cl.use_reserved = (normalized_cost <= ratio +. 1e-9))

let prop_advantage_is_ratio =
  QCheck.Test.make ~count:300
    ~name:"advantage = price ratio / normalized cost"
    QCheck.(pair (float_range 1.0 10.0) (float_range 1.1 8.0))
    (fun (normalized_cost, ratio) ->
      let p = Cl.make_pricing ~reserved_hourly:1.0 ~on_demand_hourly:ratio in
      let d = Distributions.Lognormal.default in
      let v = Cl.compare_strategies p d ~normalized_cost in
      let expected = ratio /. normalized_cost in
      Float.abs (v.Cl.advantage -. expected) <= 1e-12 *. expected
      && Float.abs
           (v.Cl.advantage -. (v.Cl.on_demand_total /. v.Cl.reserved_total))
         <= 1e-12 *. expected)

let () =
  Alcotest.run "cloud"
    [
      ( "unit",
        [
          Alcotest.test_case "pricing" `Quick test_pricing;
          Alcotest.test_case "costs" `Quick test_costs;
          Alcotest.test_case "reserved wins" `Quick test_verdict_reserved_wins;
          Alcotest.test_case "on-demand wins" `Quick test_verdict_on_demand_wins;
          Alcotest.test_case "break even" `Quick test_break_even;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_paper_criterion;
          QCheck_alcotest.to_alcotest prop_advantage_is_ratio;
        ] );
    ]
