type tier = On_demand | Spot

let tier_name = function On_demand -> "on-demand" | Spot -> "spot"

type recovery = Attempt.recovery =
  | Restart
  | Snapshot of { period : float; snapshot_cost : float; restore_cost : float }

type regime = { price_ratio : float; revocation_rate : float; recovery : recovery }

let is_finite x = Float.is_finite x

let make_regime ?(recovery = Restart) ~price_ratio ~revocation_rate () =
  if not (is_finite price_ratio && price_ratio > 0.0 && price_ratio <= 1.0) then
    invalid_arg "Spot_cost.make_regime: price_ratio must be finite in (0, 1]";
  if not (is_finite revocation_rate && revocation_rate >= 0.0) then
    invalid_arg "Spot_cost.make_regime: revocation_rate must be finite and >= 0";
  match Attempt.validate recovery with
  | Error (field, detail) -> invalid_arg ("Spot_cost.make_regime: " ^ field ^ " " ^ detail)
  | Ok recovery -> { price_ratio; revocation_rate; recovery }

let on_demand_only = { price_ratio = 1.0; revocation_rate = 0.0; recovery = Restart }

type plan = { lengths : float array; tiers : tier array }

let make_plan ~lengths ~tiers =
  let n = Array.length lengths in
  if n = 0 then invalid_arg "Spot_cost.make_plan: empty plan";
  if Array.length tiers <> n then
    invalid_arg "Spot_cost.make_plan: lengths and tiers differ in length";
  Array.iter
    (fun l ->
      if not (is_finite l && l > 0.0) then
        invalid_arg "Spot_cost.make_plan: lengths must be finite and positive")
    lengths;
  { lengths = Array.copy lengths; tiers = Array.copy tiers }

let strictly_increasing plan =
  let prev = ref 0.0 in
  Array.for_all
    (fun l ->
      let ok = l > !prev in
      prev := l;
      ok)
    plan.lengths

let uniform_plan tier lengths =
  make_plan ~lengths ~tiers:(Array.make (Array.length lengths) tier)

let spot_slots plan =
  Array.fold_left (fun acc t -> match t with Spot -> acc + 1 | On_demand -> acc) 0 plan.tiers

(* Past the plan, extend by doubling the last length on the reliable
   tier: an on-demand reservation at least as long as the remaining
   work always finishes, so every walk terminates. *)
let slot plan k =
  if k < 0 then invalid_arg "Spot_cost.slot: negative index";
  let n = Array.length plan.lengths in
  if k < n then (plan.lengths.(k), plan.tiers.(k))
  else (Float.ldexp plan.lengths.(n - 1) (k - n + 1), On_demand)

let to_sequence plan =
  let n = Array.length plan.lengths in
  let rec ext last () =
    let v = last *. 2.0 in
    Seq.Cons (v, ext v)
  in
  let rec walk k () =
    if k < n then Seq.Cons (plan.lengths.(k), walk (k + 1))
    else ext plan.lengths.(n - 1) ()
  in
  walk 0

let price regime = function On_demand -> 1.0 | Spot -> regime.price_ratio

type outcome = { billed : float; progress : float; finished : bool; revoked : bool }

let slot_outcome regime m ~tier ~length ~progress ~total ~revocation =
  if progress < 0.0 then invalid_arg "Spot_cost.slot_outcome: negative progress";
  if not (total > progress) then
    invalid_arg "Spot_cost.slot_outcome: total must exceed progress";
  if not (length > 0.0) then invalid_arg "Spot_cost.slot_outcome: non-positive length";
  if not (revocation >= 0.0) then
    invalid_arg "Spot_cost.slot_outcome: revocation must be >= 0 (NaN rejected)";
  let open Cost_model in
  let p = price regime tier in
  let interrupt = match tier with On_demand -> infinity | Spot -> revocation in
  let a = Attempt.close regime.recovery ~length ~progress ~total ~interrupt in
  let billed =
    if a.interrupted then
      (* Revoked mid-attempt: pay-for-use billing. *)
      (((p *. m.alpha) +. m.beta) *. a.elapsed) +. m.gamma
    else (p *. m.alpha *. length) +. (m.beta *. a.elapsed) +. m.gamma
  in
  { billed; progress = a.progress; finished = a.finished; revoked = a.interrupted }

let is_degenerate regime =
  match regime.recovery with
  | Snapshot _ -> false
  | Restart ->
      (* Exact degenerate-regime detection: price 1 and rate 0 select
         the bit-for-bit Eq. (1) fast path. *)
      (* stochlint: allow FLOAT_EQ — intentional exact sentinel values *)
      regime.price_ratio = 1.0 && regime.revocation_rate = 0.0

(* Revocation-window edges of one restore offset, tabulated lazily.
   Entry [c] holds, at [3c], [3c + 1] and [3c + 2], the window's lower
   edge lo_c (0 for c = 0, else restore + c (period + sigma)),
   exp(-lam lo_c) and (lo_c + 1/lam) exp(-lam lo_c): the very
   expressions the window walk would evaluate per state, so a table
   read is bit-identical to the call it replaces. Window c's upper edge
   is entry c + 1 unless the attempt's end clips it. *)
type windows = {
  lam : float;
  inv : float;
  stride : float;
  offset : float;  (* the attempt's restore overhead *)
  mutable tab : float array;
  mutable filled : int;
}

let windows ~lam ~stride offset =
  { lam; inv = 1.0 /. lam; stride; offset; tab = [||]; filled = 0 }

(* Make entries [0 .. c] available, at least doubling the table. *)
let extend w c =
  let cap = if c + 1 >= 2 * w.filled then c + 1 else 2 * w.filled in
  let tab = Array.make (3 * cap) 0.0 in
  Array.blit w.tab 0 tab 0 (3 * w.filled);
  for i = w.filled to cap - 1 do
    let lo = if i = 0 then 0.0 else w.offset +. (float_of_int i *. w.stride) in
    let e = exp (-.w.lam *. lo) in
    tab.(3 * i) <- lo;
    tab.((3 * i) + 1) <- e;
    tab.((3 * i) + 2) <- (lo +. w.inv) *. e
  done;
  w.tab <- tab;
  w.filled <- cap

(* Grow a memo or stack so that index [i] fits, doubling at least. *)
let grown a i fill =
  let len = Array.length a in
  let b = Array.make (if i + 1 >= 2 * len then i + 1 else 2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* The cost of running a job of known size under [plan], as a function
   of the size: the exact backward recursion over states (reservation
   index k, durable snapshot count j), with closed-form exponential
   revocation windows. Branches with reach weight below [prune]
   contribute nothing detectable and are cut to bound the window walks.

   One scorer serves every job size of a plan. State (k, j) lives at
   [2 + j * max_k + k] of a flat float memo, NaN while empty; index 0
   holds [infinity] (walked past the extension) and index 1 holds [0.0]
   (the job is done). The memo grows geometrically and is reused across
   sizes: [touched] stacks the indices a size filled, and only those
   are cleared for the next one. The attempt geometry is {!Attempt}'s
   scalar kernels, with [Restart] as an infinite period; mins are
   written out as [if a <= b then a else b], [Stdlib.min]'s own
   definition, so the arithmetic and every result are bit-identical to
   the plain recursion, which the tests keep as their oracle. *)
let plan_scorer regime m plan =
  let open Cost_model in
  let prune = 1e-13 in
  let n = Array.length plan.lengths in
  let max_k = n + 128 in
  let lengths = Array.init max_k (fun k -> fst (slot plan k)) in
  let on_spot =
    Array.init max_k (fun k -> match snd (slot plan k) with Spot -> true | On_demand -> false)
  in
  let lam = regime.revocation_rate in
  (* Rate 0 selects the deterministic (revocation-free) closed form;
     any other rate takes the exponential-window branch on spot slots. *)
  (* stochlint: allow FLOAT_EQ — intentional exact zero-rate sentinel *)
  let revocable = not (lam = 0.0) in
  let snapshot, period, sigma, restore_cost =
    match regime.recovery with
    | Restart -> (false, infinity, 0.0, 0.0)
    | Snapshot s -> (true, s.period, s.snapshot_cost, s.restore_cost)
  in
  let stride = period +. sigma in
  let beta = m.beta and gamma = m.gamma in
  let alpha_od = price regime On_demand *. m.alpha in
  let alpha_spot = price regime Spot *. m.alpha in
  let crate = alpha_spot +. beta in
  let fresh = windows ~lam ~stride 0.0 in
  let resumed = windows ~lam ~stride restore_cost in
  let memo = ref (Array.make (2 + (4 * max_k)) Float.nan) in
  !memo.(0) <- infinity;
  !memo.(1) <- 0.0;
  let touched = ref (Array.make 256 0) in
  let top = ref 0 in
  let size = [| 0.0 |] in
  (* The memo index holding state (k, j)'s cost, filled on demand. *)
  let rec state k j =
    if k >= max_k then 0
    else
      let t = size.(0) in
      let progress = if snapshot then float_of_int j *. period else 0.0 in
      if progress >= t then 1
      else begin
        let idx = 2 + (j * max_k) + k in
        if idx >= Array.length !memo then memo := grown !memo idx Float.nan;
        if Float.is_nan !memo.(idx) then fill k j idx;
        idx
      end
  and fill k j idx =
    let t = size.(0) in
    let progress = if snapshot then float_of_int j *. period else 0.0 in
    let length = lengths.(k) in
    let spot = on_spot.(k) in
    let p_alpha = if spot then alpha_spot else alpha_od in
    (* Attempt geometry: restore overhead, snapshots the attempt still
       has to write, and the elapsed time to finish. *)
    let restore = Attempt.restore_overhead ~restore_cost ~progress in
    let remaining = t -. progress in
    let snaps = Attempt.snapshots_to_finish ~period ~remaining in
    let e_fin = Attempt.finish_elapsed ~snapshot_cost:sigma ~restore ~remaining snaps in
    (* Snapshots durable when the reservation expires unfinished. *)
    let c_exp =
      if e_fin <= length then 0 else Attempt.snapshots_by ~stride ~restore ~cap:snaps length
    in
    let v =
      if not (spot && revocable) then
        if e_fin <= length then (p_alpha *. length) +. (beta *. e_fin) +. gamma
        else
          let i = state (k + 1) (j + c_exp) in
          (p_alpha *. length) +. (beta *. length) +. gamma +. !memo.(i)
      else begin
        let m_lim = if e_fin <= length then e_fin else length in
        let acc = ref 0.0 in
        if e_fin <= length then
          (* Success: the job finishes at e_fin unless revoked first. *)
          acc := exp (-.lam *. e_fin) *. ((p_alpha *. length) +. (beta *. e_fin) +. gamma)
        else begin
          (* Expiry: survive to the reservation end, job unfinished. *)
          let pe = exp (-.lam *. length) in
          let bill = (p_alpha *. length) +. (beta *. length) +. gamma in
          acc := !acc +. (pe *. bill);
          if pe > prune then begin
            let i = state (k + 1) (j + c_exp) in
            acc := !acc +. (pe *. !memo.(i))
          end
        end;
        (* Revocation windows: a revocation s hours in, with exactly c
           snapshots durable, lands in [lo_c, lo_(c+1)) clipped to
           m_lim. Pay-for-use billing integrates
           lam e^(-lam s) ((p alpha + beta) s + gamma) in closed form. *)
        let w = if restore > 0.0 then resumed else fresh in
        let c = ref 0 in
        let continue = ref true in
        while !continue do
          let c0 = !c in
          if c0 + 1 >= w.filled then extend w (c0 + 1);
          let tab = w.tab in
          let lo = tab.(3 * c0) in
          if lo >= m_lim then continue := false
          else begin
            let next = tab.((3 * c0) + 3) in
            let clipped = m_lim <= next in
            let hi = if clipped then m_lim else next in
            let e_hi = if clipped then exp (-.lam *. m_lim) else tab.((3 * c0) + 4) in
            let s_hi = if clipped then (m_lim +. w.inv) *. e_hi else tab.((3 * c0) + 5) in
            let prob = tab.((3 * c0) + 1) -. e_hi in
            let s_int = tab.((3 * c0) + 2) -. s_hi in
            acc := !acc +. (crate *. s_int) +. (gamma *. prob);
            if prob > prune then begin
              let i = state (k + 1) (j + if c0 <= snaps then c0 else snaps) in
              acc := !acc +. (prob *. !memo.(i))
            end;
            c := c0 + 1;
            if hi >= m_lim || e_hi < prune then continue := false
          end
        done;
        !acc
      end
    in
    !memo.(idx) <- v;
    if !top >= Array.length !touched then touched := grown !touched !top 0;
    !touched.(!top) <- idx;
    incr top
  in
  fun t ->
    size.(0) <- t;
    let v = !memo.(state 0 0) in
    let memo = !memo and touched = !touched in
    for i = 0 to !top - 1 do
      memo.(touched.(i)) <- Float.nan
    done;
    top := 0;
    v

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
    let cost = plan_scorer regime m plan in
    let acc = Numerics.Kahan.create () in
    Array.iter (fun v -> if v > 0.0 then Numerics.Kahan.add acc (w *. cost v)) values;
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
