(* Test oracle for the Theorem 5 dynamic program: the O(n^2) loop that
   evaluated every candidate j >= i for every state i before Dp.solve
   replaced it with a convex-hull deque, kept verbatim apart from this
   header and the solution type. test_dp pins Dp.solve's reservations
   and expected cost against it bit for bit. Do not "fix" or speed up
   this file: its value is that it is the old arithmetic. *)

open Stochastic_core
module Discrete = Distributions.Discrete

type solution = { reservations : float array; expected_cost : float }

let solve m d =
  let d = Discrete.normalize d in
  let v = d.Discrete.values and f = d.Discrete.probs in
  let n = Array.length v in
  let open Cost_model in
  (* Suffix sums: s.(i) = sum_(k>=i) f_k, mv.(i) = sum_(k>=i) f_k v_k,
     with index n meaning the empty suffix. *)
  let s = Array.make (n + 1) 0.0 in
  let mv = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    s.(i) <- s.(i + 1) +. f.(i);
    mv.(i) <- mv.(i + 1) +. (f.(i) *. v.(i))
  done;
  (* w.(i) = S_i * E*_i (unconditional weight of the optimal suffix
     policy), w.(n) = 0. choice.(i) = arg-min j. *)
  let w = Array.make (n + 1) 0.0 in
  let choice = Array.make n 0 in
  for i = n - 1 downto 0 do
    let best = ref infinity and best_j = ref i in
    for j = i to n - 1 do
      let cand =
        (((m.alpha *. v.(j)) +. m.gamma) *. s.(i))
        +. (m.beta *. (mv.(i) -. mv.(j + 1)))
        +. (m.beta *. v.(j) *. s.(j + 1))
        +. w.(j + 1)
      in
      if cand < !best then begin
        best := cand;
        best_j := j
      end
    done;
    w.(i) <- !best;
    choice.(i) <- !best_j
  done;
  (* Backtrack: from state 0, reserve v_(choice.(0)), then continue
     from the next uncovered support point. *)
  let rec collect i acc =
    if i >= n then List.rev acc
    else begin
      let j = choice.(i) in
      collect (j + 1) (v.(j) :: acc)
    end
  in
  { reservations = Array.of_list (collect 0 []); expected_cost = w.(0) }
