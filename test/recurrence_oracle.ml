(* Test oracle for the single-pass recurrence kernel: the code that
   walked Eq. (11) three times per t1 candidate before the kernel
   replaced it, kept verbatim apart from the module headers and the
   solver-state stubs marked below.
   - [sanitize], [mean_cost_sorted]: Sequence.
   - [next], [generate], [sequence]: Recurrence.
   - [exact]: Expected_cost.
   - [make_eval], [candidate_cost], [scan], [search], [profile],
     [cost_of_t1]: Brute_force.
   - [run_brute_force]: the t1 scan Robust.Solver carried as its own
     copy.
   test_recurrence_oracle pins the kernel, Brute_force, the solver and
   Exponential_opt against these bit for bit. Do not "fix" or speed up
   this file: its value is that it is the old arithmetic. *)

open Stochastic_core
module Dist = Distributions.Dist

(* ---------------------------- Sequence ---------------------------- *)

let sanitize ~support s =
  let double prev = if prev > 0.0 then 2.0 *. prev else 1.0 in
  match support with
  | Distributions.Dist.Unbounded _ ->
      (* State: (last emitted value, remaining raw sequence or None once
         we have switched to pure doubling). *)
      let rec step (prev, raw) () =
        match raw with
        | None ->
            let v = double prev in
            Seq.Cons (v, step (v, None))
        | Some raw -> (
            match Seq.uncons raw with
            | None ->
                let v = double prev in
                Seq.Cons (v, step (v, None))
            | Some (x, rest) ->
                if Float.is_finite x && x > prev && x > 0.0 then
                  Seq.Cons (x, step (x, Some rest))
                else begin
                  (* Raw value unusable: abandon the raw sequence. *)
                  let v = double prev in
                  Seq.Cons (v, step (v, None))
                end)
      in
      step (0.0, Some s)
  | Distributions.Dist.Bounded (a, b) ->
      let near_b = b -. (1e-9 *. (b -. a)) in
      let rec step (prev, raw) () =
        if prev >= b then Seq.Nil
        else
          match raw with
          | None -> Seq.Cons (b, step (b, None))
          | Some raw -> (
              match Seq.uncons raw with
              | None -> Seq.Cons (b, step (b, None))
              | Some (x, rest) ->
                  if not (Float.is_finite x && x > prev && x > 0.0) then
                    (* Unusable value: finish with the upper bound. *)
                    Seq.Cons (b, step (b, None))
                  else if x >= near_b then Seq.Cons (b, step (b, None))
                  else Seq.Cons (x, step (x, Some rest)))
      in
      step (0.0, Some s)

let mean_cost_sorted ?(max_steps = 100_000) m s samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Sequence.mean_cost_sorted: empty sample";
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  (* comp tracks the prefix sum of failed-reservation costs exactly. *)
  let comp = Numerics.Kahan.create () in
  let idx = ref 0 in
  let steps = ref 0 in
  let rec go s =
    if !idx >= n then ()
    else begin
      incr steps;
      if !steps > max_steps then raise (Sequence.Not_covered samples.(!idx));
      match Seq.uncons s with
      | None -> raise (Sequence.Not_covered samples.(!idx))
      | Some (tk, rest) ->
          let p = Numerics.Kahan.sum comp in
          while !idx < n && samples.(!idx) <= tk do
            Numerics.Kahan.add acc
              (p +. (m.alpha *. tk) +. (m.beta *. samples.(!idx)) +. m.gamma);
            incr idx
          done;
          if !idx < n then begin
            Numerics.Kahan.add comp
              ((m.alpha *. tk) +. (m.beta *. tk) +. m.gamma);
            go rest
          end
    end
  in
  go s;
  Numerics.Kahan.sum acc /. float_of_int n

(* --------------------------- Recurrence --------------------------- *)

type stop = Recurrence.stop =
  | Unsupported_t1 of float
  | Density_underflow of { t : float; survival : float }
  | Non_finite of { t_prev : float; next : float }
  | Non_increasing of { t_prev : float; next : float }
  | Too_long of int

let next m d ~t_prev2 ~t_prev1 =
  let open Cost_model in
  let f1 = d.Dist.pdf t_prev1 in
  let sf2 = Dist.sf d t_prev2 in
  let sf1 = Dist.sf d t_prev1 in
  (sf2 /. f1)
  +. (m.beta /. m.alpha *. ((sf1 /. f1) -. t_prev1))
  -. (m.gamma /. m.alpha)

let generate ?(coverage = 1.0 -. 1e-9) ?(max_len = 1000) m d ~t1 =
  let a = Dist.lower d and b = Dist.upper d in
  if not (Float.is_finite t1) || t1 <= a || t1 > b then
    Error (Unsupported_t1 t1)
  else begin
    let out = ref [ t1 ] in
    let len = ref 1 in
    let t_prev2 = ref 0.0 and t_prev1 = ref t1 in
    let status = ref `Running in
    if d.Dist.cdf t1 >= coverage then status := `Done;
    if t1 >= b then status := `Done;
    while !status = `Running do
      if !len >= max_len then status := `Too_long
      else begin
        (* Eq. (11) divides by f t_(i-1): deep in the tail the density
           underflows to 0 before the CDF reaches the coverage target
           (heavy tails, near-point masses), which would propagate
           inf/nan through [next]. Detect it and stop typed instead. *)
        let f1 = d.Dist.pdf !t_prev1 in
        if f1 <= 0.0 || Float.is_nan f1 then
          status := `Underflow (!t_prev1, Dist.sf d !t_prev1)
        else begin
          let t = next m d ~t_prev2:!t_prev2 ~t_prev1:!t_prev1 in
          if not (Float.is_finite t) then status := `Not_finite (!t_prev1, t)
          else if t <= !t_prev1 then status := `Not_increasing (!t_prev1, t)
          else begin
            let t = if t >= b then b else t in
            out := t :: !out;
            incr len;
            t_prev2 := !t_prev1;
            t_prev1 := t;
            if t >= b || d.Dist.cdf t >= coverage then status := `Done
          end
        end
      end
    done;
    match !status with
    | `Done -> Ok (Array.of_list (List.rev !out))
    | `Too_long -> Error (Too_long max_len)
    | `Underflow (t, survival) -> Error (Density_underflow { t; survival })
    | `Not_finite (t_prev, next) -> Error (Non_finite { t_prev; next })
    | `Not_increasing (t_prev, next) -> Error (Non_increasing { t_prev; next })
    | `Running -> assert false
  end

let sequence m d ~t1 =
  let raw =
    let rec step (t_prev2, t_prev1) () =
      let t =
        (* Same guard as [generate]: a zero density must not divide. *)
        let f1 = d.Dist.pdf t_prev1 in
        if f1 <= 0.0 || Float.is_nan f1 then nan
        else next m d ~t_prev2 ~t_prev1
      in
      (* sanitize takes over when t is unusable. *)
      Seq.Cons (t, step (t_prev1, t))
    in
    fun () -> Seq.Cons (t1, step (0.0, t1))
  in
  sanitize ~support:d.Dist.support raw

(* -------------------------- Expected_cost ------------------------- *)

let exact ?(tail_eps = 1e-16) ?(max_terms = 100_000) m d s =
  let open Cost_model in
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc (m.beta *. d.Dist.mean);
  (* i = 0 term uses t_0 = 0, P(X >= 0) = 1 and needs t_1. *)
  let rec go i t_prev sf_prev s =
    if i > max_terms then ()
    else
      match Seq.uncons s with
      | None -> ()
      | Some (t_next, rest) ->
          Numerics.Kahan.add acc
            (((m.alpha *. t_next) +. (m.beta *. t_prev) +. m.gamma) *. sf_prev);
          let sf_next = Dist.sf d t_next in
          if sf_next < tail_eps then ()
          else go (i + 1) t_next sf_next rest
  in
  go 0 0.0 1.0 s;
  Numerics.Kahan.sum acc

(* --------------------------- Brute_force -------------------------- *)

type evaluator = Brute_force.evaluator =
  | Monte_carlo of { rng : Randomness.Rng.t; n : int }
  | Exact

let default_m = 5000
let default_n = 1000

let make_eval evaluator cost d =
  match evaluator with
  | Exact -> fun seq -> exact cost d seq
  | Monte_carlo { rng; n } ->
      let samples = Dist.samples d rng n in
      Array.sort compare samples;
      fun seq -> mean_cost_sorted cost seq samples

let default_evaluator () = Monte_carlo { rng = Randomness.Rng.create (); n = default_n }

let candidate_cost eval cost d t1 =
  match generate cost d ~t1 with
  | Error _ -> None
  | Ok _prefix ->
      (* The validated prefix guarantees the sanitized infinite
         sequence coincides with the raw recurrence over all but a
         1e-9 tail of the mass. *)
      Some (eval (sequence cost d ~t1))

let scan ?(m = default_m) ?evaluator cost d =
  let evaluator =
    match evaluator with Some e -> e | None -> default_evaluator ()
  in
  let eval = make_eval evaluator cost d in
  let a, b = Bounds.search_interval cost d in
  let step = (b -. a) /. float_of_int m in
  Array.init m (fun i ->
      let t1 = a +. (float_of_int (i + 1) *. step) in
      (t1, candidate_cost eval cost d t1))

(* [search] without the lazy [sequence] field: (t1, cost, normalized,
   candidates, valid). *)
let search ?m ?evaluator cost d =
  let results = scan ?m ?evaluator cost d in
  let candidates = Array.length results in
  let valid = ref 0 in
  let best_t1 = ref nan and best_cost = ref infinity in
  Array.iter
    (fun (t1, c) ->
      match c with
      | None -> ()
      | Some c ->
          incr valid;
          if c < !best_cost then begin
            best_cost := c;
            best_t1 := t1
          end)
    results;
  if !valid = 0 then
    invalid_arg "Brute_force.search: no valid candidate sequence found";
  ( !best_t1,
    !best_cost,
    Expected_cost.normalized cost d ~cost:!best_cost,
    candidates,
    !valid )

let profile ?m ?evaluator cost d =
  let results = scan ?m ?evaluator cost d in
  Array.map
    (fun (t1, c) ->
      (t1, Option.map (fun c -> Expected_cost.normalized cost d ~cost:c) c))
    results

let cost_of_t1 ?evaluator cost d t1 =
  let evaluator =
    match evaluator with Some e -> e | None -> default_evaluator ()
  in
  let eval = make_eval evaluator cost d in
  candidate_cost eval cost d t1

(* ------------------------- Robust.Solver -------------------------- *)

(* Stubs for the solver's private state (changed from the original):
   the evaluation count is kept, the wall-clock deadline never fires,
   and a tier failure is a local exception carrying its message. *)
type state = { budget : Robust.Solver.budget; mutable evaluations : int }

exception Tier_fail of string

let over_deadline _st _tier = false
let spend st ~stage:_ n = st.evaluations <- st.evaluations + n
let fail_non_convergent stage detail = raise (Tier_fail (stage ^ ": " ^ detail))
let tier_name = Robust.Solver.tier_name

(* The scan loop, verbatim; returns the winning t1 instead of its
   sequence. *)
let run_brute_force st ~exact:use_exact ~seed cost_model d =
  let stage = tier_name Robust.Solver.Brute_force in
  let a, b =
    match Stochastic_core.Bounds.search_interval cost_model d with
    | bounds -> bounds
    | exception Invalid_argument msg ->
        fail_non_convergent (stage ^ "/bounds") msg
    | exception exn ->
        fail_non_convergent (stage ^ "/bounds") (Printexc.to_string exn)
  in
  if not (Float.is_finite a && Float.is_finite b && b > a) then
    fail_non_convergent (stage ^ "/bounds")
      (Printf.sprintf "degenerate search interval (%g, %g]" a b);
  let eval =
    if use_exact then fun seq -> exact cost_model d seq
    else begin
      let rng = Randomness.Rng.create ~seed () in
      let samples =
        match Dist.samples d rng st.budget.mc_samples with
        | s -> s
        | exception exn ->
            fail_non_convergent (stage ^ "/sampling") (Printexc.to_string exn)
      in
      Array.iter
        (fun x ->
          if not (Float.is_finite x) then
            fail_non_convergent (stage ^ "/sampling")
              (Printf.sprintf "sampler produced %g" x))
        samples;
      Array.sort compare samples;
      fun seq -> mean_cost_sorted cost_model seq samples
    end
  in
  let m = st.budget.bf_candidates in
  let step = (b -. a) /. float_of_int m in
  let best_t1 = ref nan and best_cost = ref infinity in
  let valid = ref 0 in
  let underflow = ref 0
  and non_increasing = ref 0
  and non_finite = ref 0
  and too_long = ref 0
  and eval_failed = ref 0 in
  (try
     for i = 1 to m do
       if over_deadline st Robust.Solver.Brute_force then begin
         if Float.is_nan !best_t1 then raise (Tier_fail "budget exhausted")
         else raise Exit
       end;
       spend st ~stage 1;
       let t1 = a +. (float_of_int i *. step) in
       match generate cost_model d ~t1 with
       | Error (Density_underflow _) -> incr underflow
       | Error (Non_increasing _) -> incr non_increasing
       | Error (Non_finite _) -> incr non_finite
       | Error (Too_long _) -> incr too_long
       | Error (Unsupported_t1 _) -> incr eval_failed
       | Ok _ -> (
           let seq = sequence cost_model d ~t1 in
           match eval seq with
           | c when Float.is_finite c ->
               incr valid;
               if c < !best_cost then begin
                 best_cost := c;
                 best_t1 := t1
               end
           | _ -> incr eval_failed
           | exception _ -> incr eval_failed)
     done
   with Exit -> ());
  if Float.is_nan !best_t1 then
    fail_non_convergent stage
      (Printf.sprintf
         "0/%d candidates yielded a valid sequence (density underflow %d, \
          non-increasing %d, non-finite %d, too long %d, evaluation failed \
          %d)"
         m !underflow !non_increasing !non_finite !too_long !eval_failed)
  else !best_t1

(* ------------------------- Exponential_opt ------------------------ *)

let exp1 = Distributions.Exponential.make ~rate:1.0

let expected_cost_exp1 ~s1 =
  if not (Float.is_finite s1) || s1 <= 0.0 then infinity
  else begin
    let cost = Cost_model.reservation_only in
    exact cost exp1 (sequence cost exp1 ~t1:s1)
  end

let exp_opt () =
  let r =
    Numerics.Optimize.grid ~n:8000 (fun s1 -> expected_cost_exp1 ~s1) 1e-6 2.0
  in
  (r.Numerics.Optimize.xmin, r.Numerics.Optimize.fmin)
