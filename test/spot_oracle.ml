(* Test oracle for the spot evaluator: the hashtable-memoized recursion
   that Spot_cost shipped before its flat-memo rewrite, kept verbatim
   (only the module header differs). test_spot pins
   Spot_cost.expected_cost against [expected_cost] here bit for bit,
   on the benchmark's plans and on a random property. Do not "fix" or
   speed up this file: its value is that it is the old arithmetic. *)

open Stochastic_core
open Spot_cost

let price regime = function On_demand -> 1.0 | Spot -> regime.price_ratio

(* Deterministic geometry of one attempt: what it costs in elapsed
   time to finish from [progress] durable hours of a [total]-hour job
   under the regime's recovery discipline. *)
type attempt = { restore : float; snaps_to_finish : int; finish_elapsed : float }

let attempt_of regime ~progress ~total =
  match regime.recovery with
  | Restart -> { restore = 0.0; snaps_to_finish = 0; finish_elapsed = total }
  | Snapshot { period; snapshot_cost; restore_cost } ->
      let restore = if progress > 0.0 then restore_cost else 0.0 in
      let rem = total -. progress in
      let snaps = max 0 (int_of_float (ceil (rem /. period)) - 1) in
      {
        restore;
        snaps_to_finish = snaps;
        finish_elapsed = restore +. rem +. (snapshot_cost *. float_of_int snaps);
      }

(* Snapshots completed [elapsed] hours into an attempt; each one makes
   a further [period] of work durable. Capped at [snaps_to_finish]
   (provable, but cheap to enforce). *)
let snaps_by regime a ~elapsed =
  match regime.recovery with
  | Restart -> 0
  | Snapshot { period; snapshot_cost; _ } ->
      let c =
        int_of_float (floor ((elapsed -. a.restore) /. (period +. snapshot_cost)))
      in
      max 0 (min c a.snaps_to_finish)

let is_degenerate regime =
  match regime.recovery with
  | Snapshot _ -> false
  | Restart ->
      (* Exact degenerate-regime detection: price 1 and rate 0 select
         the bit-for-bit Eq. (1) fast path. *)
      (* stochlint: allow FLOAT_EQ — intentional exact sentinel values *)
      regime.price_ratio = 1.0 && regime.revocation_rate = 0.0

(* Expected cost of running a job of known size [t] under [plan],
   solved exactly by backward recursion over (reservation index,
   durable snapshot count) with closed-form exponential revocation
   windows. Branches with reach weight below [prune] contribute
   nothing detectable and are cut to bound the window walks. *)
let cost_for_total regime m plan t =
  let open Cost_model in
  let lam_spot = regime.revocation_rate in
  let period, sigma =
    match regime.recovery with
    | Restart -> (infinity, 0.0)
    | Snapshot s -> (s.period, s.snapshot_cost)
  in
  let prune = 1e-13 in
  let n = Array.length plan.lengths in
  let max_k = n + 128 in
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let rec go k j =
    let key = (k, j) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
        let v = compute k j in
        Hashtbl.replace memo key v;
        v
  and compute k j =
    if k >= max_k then infinity
    else
      let progress =
        match regime.recovery with
        | Restart -> 0.0
        | Snapshot _ -> float_of_int j *. period
      in
      if progress >= t then 0.0
      else
        let length, tier = slot plan k in
        let p = price regime tier in
        let lam = match tier with On_demand -> 0.0 | Spot -> lam_spot in
        let a = attempt_of regime ~progress ~total:t in
        let e_fin = a.finish_elapsed in
        (* Rate 0 selects the deterministic (revocation-free) closed
           form; any positive rate takes the exponential-window branch. *)
        (* stochlint: allow FLOAT_EQ — intentional exact zero-rate sentinel *)
        if lam = 0.0 then
          if e_fin <= length then (p *. m.alpha *. length) +. (m.beta *. e_fin) +. m.gamma
          else
            let c = snaps_by regime a ~elapsed:length in
            (p *. m.alpha *. length) +. (m.beta *. length) +. m.gamma +. go (k + 1) (j + c)
        else begin
          let m_lim = min e_fin length in
          let acc = ref 0.0 in
          if e_fin <= length then
            (* Success: the job finishes at e_fin unless revoked first. *)
            acc :=
              exp (-.lam *. e_fin)
              *. ((p *. m.alpha *. length) +. (m.beta *. e_fin) +. m.gamma)
          else begin
            (* Expiry: survive to the reservation end, job unfinished. *)
            let pe = exp (-.lam *. length) in
            let c = snaps_by regime a ~elapsed:length in
            let bill = (p *. m.alpha *. length) +. (m.beta *. length) +. m.gamma in
            acc := !acc +. (pe *. bill);
            if pe > prune then acc := !acc +. (pe *. go (k + 1) (j + c))
          end;
          (* Revocation windows: a revocation s hours in, with exactly c
             snapshots durable, lands in
             [restore + c (period + sigma), restore + (c+1) (period + sigma))
             (window 0 starts at 0). Pay-for-use billing integrates
             lam e^(-lam s) ((p alpha + beta) s + gamma) in closed form. *)
          let crate = (p *. m.alpha) +. m.beta in
          let inv = 1.0 /. lam in
          let c = ref 0 in
          let continue = ref true in
          while !continue do
            let lo =
              if !c = 0 then 0.0
              else a.restore +. (float_of_int !c *. (period +. sigma))
            in
            if lo >= m_lim then continue := false
            else begin
              let hi = min m_lim (a.restore +. (float_of_int (!c + 1) *. (period +. sigma))) in
              let e_lo = exp (-.lam *. lo) and e_hi = exp (-.lam *. hi) in
              let prob = e_lo -. e_hi in
              let s_int = ((lo +. inv) *. e_lo) -. ((hi +. inv) *. e_hi) in
              acc := !acc +. (crate *. s_int) +. (m.gamma *. prob);
              if prob > prune then begin
                let cc = min !c a.snaps_to_finish in
                acc := !acc +. (prob *. go (k + 1) (j + cc))
              end;
              incr c;
              if hi >= m_lim || e_hi < prune then continue := false
            end
          done;
          !acc
        end
  in
  go 0 0

(* Midpoint equal-probability grid: values at quantile
   (F(b) (i + 1/2) / n). Unlike the DP's right-endpoint grid
   (Discretize.run), midpoints are second-order accurate, which keeps
   the discretization bias well inside the Monte-Carlo validation
   tolerance. *)
let evaluator_general ~disc_n ~eps regime m d =
  let b = Discretize.truncation_point ~eps d in
  let fb = d.Distributions.Dist.cdf b in
  let n = float_of_int disc_n in
  let values =
    Array.init disc_n (fun i ->
        d.Distributions.Dist.quantile (fb *. (float_of_int i +. 0.5) /. n))
  in
  let w = 1.0 /. n in
  fun plan ->
    let acc = Numerics.Kahan.create () in
    Array.iter
      (fun v -> if v > 0.0 then Numerics.Kahan.add acc (w *. cost_for_total regime m plan v))
      values;
    Numerics.Kahan.sum acc

let evaluator ?(disc_n = 2000) ?(eps = 1e-9) regime m d =
  if disc_n <= 0 then invalid_arg "Spot_cost.evaluator: disc_n must be positive";
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Spot_cost.evaluator: eps must be in (0, 1)";
  if is_degenerate regime then begin
    (* The Eq. (4) series assumes increasing reservation lengths
       (success at slot k means t <= t_k); flat chunked plans need the
       walk-based recursion even in the degenerate regime. *)
    let general = lazy (evaluator_general ~disc_n ~eps regime m d) in
    fun plan ->
      if strictly_increasing plan then Expected_cost.exact m d (to_sequence plan)
      else (Lazy.force general) plan
  end
  else evaluator_general ~disc_n ~eps regime m d

let expected_cost ?disc_n ?eps regime m d plan = (evaluator ?disc_n ?eps regime m d) plan
