let exp1 = Distributions.Exponential.make ~rate:1.0

let expected_cost_exp1 ~s1 =
  if not (Float.is_finite s1) || s1 <= 0.0 then infinity
  else begin
    (* The s_i recurrence is an expanding map, so floating-point error
       derails every trajectory eventually — even the optimal one
       collapses after a handful of terms. We therefore evaluate the
       series Eq. (4) on the *sanitized* recurrence sequence, whose
       doubling fallback takes over at the collapse point; its extra
       terms are the exact cost of that well-defined sequence, keeping
       the objective finite and honest everywhere. *)
    let cost = Cost_model.reservation_only in
    Expected_cost.exact cost exp1 (Recurrence.sequence cost exp1 ~t1:s1)
  end

type solution = { s1 : float; e1 : float }

(* stochlint: allow GLOBAL_MUT_STATE — idempotent memo of a pure parameterless solve; a racing recompute is benign *)
let cache = ref None

let solve () =
  match !cache with
  | Some s -> s
  | None ->
      (* The objective has small discontinuities where the collapse
         index of the recurrence jumps, so a dense grid with
         golden-section polish is more reliable than pure Brent. *)
      let r =
        Numerics.Optimize.grid ~n:8000 (fun s1 -> expected_cost_exp1 ~s1) 1e-6
          2.0
      in
      let s = { s1 = r.Numerics.Optimize.xmin; e1 = r.Numerics.Optimize.fmin } in
      cache := Some s;
      s

let sequence ~rate =
  if rate <= 0.0 then invalid_arg "Exponential_opt.sequence: rate must be > 0";
  let { s1; _ } = solve () in
  let raw =
    let rec step (prev2, prev1) () =
      let s = exp (prev1 -. prev2) in
      Seq.Cons (s /. rate, step (prev1, s))
    in
    fun () -> Seq.Cons (s1 /. rate, step (0.0, s1))
  in
  Sequence.sanitize ~support:(Distributions.Dist.Unbounded 0.0) raw

let expected_cost ~rate =
  if rate <= 0.0 then invalid_arg "Exponential_opt.expected_cost: rate must be > 0";
  (solve ()).e1 /. rate
