module Discrete = Distributions.Discrete
module Dist = Distributions.Dist

type solution = { reservations : float array; expected_cost : float; candidates : int }

(* For fixed j, cand(i, j) - beta mv_i is a line in s_i:
   slope alpha v_j + gamma, intercept beta v_j s_(j+1) - beta mv_(j+1)
   + w_(j+1). [Discrete.make] sorts the values and drops zero-mass
   points, so as i falls the new line's slope is the smallest yet and
   the query s_i the largest yet: the lower envelope is a deque, lines
   pushed at the back and retired from the front. *)
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
  let candidates = ref 0 in
  let cand i j =
    incr candidates;
    (((m.alpha *. v.(j)) +. m.gamma) *. s.(i))
    +. (m.beta *. (mv.(i) -. mv.(j + 1)))
    +. (m.beta *. v.(j) *. s.(j + 1))
    +. w.(j + 1)
  in
  (* The deque holds lines q.(head) .. q.(tail - 1), oldest (largest j,
     steepest) first; slope.(k) and icpt.(k) belong to q.(k). *)
  let q = Array.make n 0 and slope = Array.make n 0.0 and icpt = Array.make n 0.0 in
  let head = ref 0 and tail = ref 0 in
  let push j =
    let a = (m.alpha *. v.(j)) +. m.gamma
    and b = (m.beta *. v.(j) *. s.(j + 1)) -. (m.beta *. mv.(j + 1)) +. w.(j + 1) in
    (* [true] once the new line belongs at the back. Ties go to the
       smaller j, the newer line: a back line of the same rounded slope
       is retired if the new one is no higher, else the new one is
       dropped. A back line behind another is retired when it is nowhere
       strictly below both that line and the new one: where it meets the
       new line is not right of where it meets the other. *)
    let rec retire () =
      let k = !tail - 1 in
      if k < !head then true
      else if a >= slope.(k) then b <= icpt.(k) && (decr tail; retire ())
      else if
        k > !head
        && (b -. icpt.(k)) *. (slope.(k - 1) -. slope.(k))
           <= (icpt.(k) -. icpt.(k - 1)) *. (slope.(k) -. a)
      then (decr tail; retire ())
      else true
    in
    if retire () then begin
      q.(!tail) <- j;
      slope.(!tail) <- a;
      icpt.(!tail) <- b;
      incr tail
    end
  in
  for i = n - 1 downto 0 do
    push i;
    (* Retire front lines while the next one, a smaller j, is no worse
       at s_i by today's expression; it stays no worse as s_i grows. *)
    let rec best c =
      if !tail - !head >= 2 then begin
        let c' = cand i q.(!head + 1) in
        if c' <= c then begin
          incr head;
          best c'
        end
        else c
      end
      else c
    in
    w.(i) <- best (cand i q.(!head));
    choice.(i) <- q.(!head)
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
  { reservations = Array.of_list (collect 0 []); expected_cost = w.(0);
    candidates = !candidates }

let sequence_for m d discrete =
  let sol = solve m discrete in
  Sequence.sanitize ~support:d.Dist.support (Array.to_seq sol.reservations)

let expected_cost_brute m d reservations =
  let d = Discrete.normalize d in
  let v = d.Discrete.values and f = d.Discrete.probs in
  let n = Array.length v in
  let k = Array.length reservations in
  if k = 0 then invalid_arg "Dp.expected_cost_brute: empty sequence";
  for i = 1 to k - 1 do
    if reservations.(i) <= reservations.(i - 1) then
      invalid_arg "Dp.expected_cost_brute: sequence must be increasing"
  done;
  if reservations.(k - 1) < v.(n - 1) then
    invalid_arg "Dp.expected_cost_brute: last reservation must cover v_n";
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  for i = 0 to n - 1 do
    (* Cost of running a job of duration v_i through the sequence. *)
    let cost = ref 0.0 in
    let j = ref 0 in
    while reservations.(!j) < v.(i) do
      cost :=
        !cost
        +. (m.alpha *. reservations.(!j))
        +. (m.beta *. reservations.(!j))
        +. m.gamma;
      incr j
    done;
    cost :=
      !cost
      +. (m.alpha *. reservations.(!j))
      +. (m.beta *. v.(i))
      +. m.gamma;
    Numerics.Kahan.add acc (f.(i) *. !cost)
  done;
  Numerics.Kahan.sum acc
