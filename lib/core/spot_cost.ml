type tier = On_demand | Spot

let tier_name = function On_demand -> "on-demand" | Spot -> "spot"

type recovery = Attempt.recovery =
  | Restart
  | Snapshot of { period : float; snapshot_cost : float; restore_cost : float }

type regime = { price_ratio : float; revocation_rate : float; recovery : recovery }

let is_finite x = Float.is_finite x

let validate_regime r =
  let fail field bound v =
    Error (field, Printf.sprintf "must be finite %s, got %g" bound v)
  in
  if not (is_finite r.price_ratio && r.price_ratio > 0.0 && r.price_ratio <= 1.0)
  then fail "price_ratio" "in (0, 1]" r.price_ratio
  else if not (is_finite r.revocation_rate && r.revocation_rate >= 0.0) then
    fail "revocation_rate" "and >= 0" r.revocation_rate
  else Attempt.validate r.recovery |> Result.map (fun _ -> r)

let make_regime ?(recovery = Restart) ~price_ratio ~revocation_rate () =
  match validate_regime { price_ratio; revocation_rate; recovery } with
  | Error (field, detail) -> invalid_arg ("Spot_cost.make_regime: " ^ field ^ " " ^ detail)
  | Ok r -> r

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

type scored = { cost : float; states : int }
type node = { size : float; weight : float; value : float }

(* ------------------------------------------------------------------ *)
(* Restart: one chain of states per job size.                          *)
(* ------------------------------------------------------------------ *)

(* Under [Restart] nothing survives an unfinished attempt, so a job of
   size t has one state per slot k: V(k) is slot k's own terms plus the
   chance of reaching slot k + 1 times V(k + 1), and [infinity] past the
   extension. [restart_scorer regime m plan] is [(value, states)]:
   [value t 0] is the cost of a t-hour job and [states] counts the
   states it filled. The terms are those the (slot, snapshots)
   recursion evaluates at zero snapshots, the window walk reduced to its
   single window, except that the window's billing takes the lattice's
   [expm1] form: the recursion's 1/lam - (m + 1/lam) e^(-lam m) cancels
   all but a few digits at small rates. Branches with reach weight
   below [prune] contribute nothing detectable and are cut. *)
let restart_scorer regime m plan =
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
  let beta = m.beta and gamma = m.gamma in
  let alpha_od = price regime On_demand *. m.alpha in
  let alpha_spot = price regime Spot *. m.alpha in
  let crate = alpha_spot +. beta in
  let inv = 1.0 /. lam in
  let states = ref 0 in
  let rec value t k =
    if k >= max_k then infinity
    else begin
      incr states;
      let length = lengths.(k) in
      let spot = on_spot.(k) in
      let p_alpha = if spot then alpha_spot else alpha_od in
      let fits = t <= length in
      if not (spot && revocable) then
        if fits then (p_alpha *. length) +. (beta *. t) +. gamma
        else (p_alpha *. length) +. (beta *. length) +. gamma +. value t (k + 1)
      else begin
        (* One revocation window, [0, m_lim): a revocation there loses
           the attempt, and pay-for-use billing integrates
           lam e^(-lam s) ((p alpha + beta) s + gamma) in closed form. *)
        let m_lim = if fits then t else length in
        let pe = if fits then 0.0 else exp (-.lam *. length) in
        let e_hi = exp (-.lam *. m_lim) in
        let prob = -.Float.expm1 (-.lam *. m_lim) in
        let expiry_next = (not fits) && pe > prune in
        let next = if expiry_next || prob > prune then value t (k + 1) else 0.0 in
        let acc =
          if fits then exp (-.lam *. t) *. ((p_alpha *. length) +. (beta *. t) +. gamma)
          else
            let acc = 0.0 +. (pe *. ((p_alpha *. length) +. (beta *. length) +. gamma)) in
            if expiry_next then acc +. (pe *. next) else acc
        in
        let acc = acc +. (crate *. ((prob *. inv) -. (m_lim *. e_hi))) +. (gamma *. prob) in
        if prob > prune then acc +. (prob *. next) else acc
      end
    end
  in
  (value, states)

(* Midpoint equal-probability grid: values at quantile
   (F(b) (i + 1/2) / n), each of weight 1/n. Unlike the DP's
   right-endpoint grid (Discretize.run), midpoints are second-order
   accurate. *)
let restart_nodes ~disc_n ~eps regime m d =
  let b = Discretize.truncation_point ~eps d in
  let fb = d.Distributions.Dist.cdf b in
  let n = float_of_int disc_n in
  let values =
    Array.init disc_n (fun i ->
        d.Distributions.Dist.quantile (fb *. (float_of_int i +. 0.5) /. n))
  in
  let weight = 1.0 /. n in
  fun plan emit ->
    let value, states = restart_scorer regime m plan in
    Array.iter (fun v -> if v > 0.0 then emit v weight (value v 0)) values;
    !states

(* ------------------------------------------------------------------ *)
(* Snapshot: the snapshot lattice.                                     *)
(* ------------------------------------------------------------------ *)

(* Under [Snapshot] a state of the per-size recursion is (slot k,
   durable snapshots j), and its cost-to-go depends on the size x only
   through the work left, x - j period. Sizes on the lattice
   x = n period + f, f in (0, period], therefore share states: with
   m = n - j whole periods left, an attempt writes m snapshots on the
   way to finishing, so V(k, m, restore due) at offset f serves every
   n. The evaluator cuts (0, period] into cells, takes one node per cell
   midpoint f and per n, weighted by the cell's probability mass, and
   fills one table per offset.

   [lattice] is the part shared by every plan: the lattice's reach, the
   fixed uniform sub-grid with its cdf values, the node for the mass
   past the reach, and the window decay powers. *)
type rest = { r_m : int; r_f : float; r_weight : float }

type lattice = {
  period : float;
  sigma : float;
  restore_cost : float;
  stride : float;
  lam : float;
  periods : int;  (** N: lattice sizes are n period + f, n < N. *)
  grid : float array;  (** Sub-grid cuts, 0 = g_0 < ... < g_G = period. *)
  grid_cdf : float array array;
      (** [grid_cdf.(i).(n)] = F(min (n period + g_i, top)) / F(b). *)
  cdf_at : float -> float;  (** x |-> F(min (x, top)) / F(b). *)
  rest : rest option;  (** The mass of (top, b], at its conditional mean. *)
  qpow : float array;  (** [qpow.(m)] = exp(-lam m stride). *)
  qmiss : float array array;
      (** [qmiss.(rho).(m)] = 1 - exp(-lam lo_m), lo_m = restore + m stride,
          through [expm1]: exact where lam lo_m is small. *)
}

(* [x] as n period + f with f in (0, period]. *)
let on_lattice ~period x =
  let n = max 0 (int_of_float (ceil (x /. period)) - 1) in
  let f = x -. (float_of_int n *. period) in
  if f > period then (n + 1, f -. period)
  else if f <= 0.0 && n > 0 then (n - 1, f +. period)
  else (n, f)

(* tau is the lower edge of the midpoint grid's last cell (probability
   F(b)/disc_n below b). The lattice runs half as far again, to
   top = 1.5 ceil (tau / period) periods, or to b if that is nearer, so
   heavy tails cannot stretch it to the 1 - eps quantile; the mass of
   (top, b] sits at its conditional mean. (A single node for all of
   (tau, b] misprices increasing plans by up to 1e-3: their cost still
   jumps by whole reservations there.) The sub-grid splits a period into
   as many cells as it takes for no cell of the heaviest period to hold
   more than about 4/disc_n of the mass; the cells are then cut at every
   jump, and on smooth pieces the midpoint rule is second order. *)
let lattice ~disc_n ~eps ~period ~sigma ~restore_cost ~lam d =
  let open Distributions in
  let b = Discretize.truncation_point ~eps d in
  let fb = d.Dist.cdf b in
  let tau = Float.min b (d.Dist.quantile (fb *. (1.0 -. (1.0 /. float_of_int disc_n)))) in
  let periods =
    if tau > 0.0 then
      let n = int_of_float (ceil (tau /. period)) in
      min (int_of_float (ceil (b /. period))) (n + ((n + 1) / 2))
    else 0
  in
  let top = Float.min b (float_of_int periods *. period) in
  let f_top = d.Dist.cdf top in
  let cdf_at x = (if x >= top then f_top else d.Dist.cdf x) /. fb in
  let heaviest = ref 0.0 in
  for n = 0 to periods - 1 do
    let mass = cdf_at (float_of_int (n + 1) *. period) -. cdf_at (float_of_int n *. period) in
    if mass > !heaviest then heaviest := mass
  done;
  let cells = max 1 (int_of_float (ceil (0.25 *. float_of_int disc_n *. !heaviest))) in
  let grid =
    Array.init (cells + 1) (fun i ->
        if i = cells then period else period *. float_of_int i /. float_of_int cells)
  in
  let grid_cdf =
    Array.map
      (fun g -> Array.init periods (fun n -> cdf_at ((float_of_int n *. period) +. g)))
      grid
  in
  let rest =
    let r_weight = (fb -. f_top) /. fb in
    let cm = d.Dist.conditional_mean top in
    let x = if Float.is_nan cm then b else Float.min b (Float.max top cm) in
    let r_m, r_f = on_lattice ~period x in
    if top < b && r_weight > 0.0 && r_f > 0.0 then Some { r_m; r_f; r_weight } else None
  in
  let stride = period +. sigma in
  let mmax = max (periods - 1) (match rest with Some r -> r.r_m | None -> 0) in
  {
    period;
    sigma;
    restore_cost;
    stride;
    lam;
    periods;
    grid;
    grid_cdf;
    cdf_at;
    rest;
    qpow = Array.init (mmax + 1) (fun m -> exp (-.lam *. float_of_int m *. stride));
    qmiss =
      Array.map
        (fun r0 ->
          Array.init (mmax + 1) (fun m ->
              -.Float.expm1 (-.lam *. (r0 +. (float_of_int m *. stride)))))
        [| 0.0; restore_cost |];
  }

(* Score [plan] on the lattice: call [emit size weight value] once per
   node and return the states filled.

   V(k, m, rho) is the per-size recursion's state (k, j) for a size
   n period + f with m = n - j periods left; rho = 1 when a restore is
   due (j > 0), 0 on a fresh start. An attempt from it needs
   e_fin = restore + m stride + f hours. It finishes if that fits the
   slot and the capacity survives; otherwise it expires after
   c_exp = floor ((L - restore) / stride) snapshots, or is revoked in
   window c, [lo_c, lo_(c+1)) with lo_c = restore + c stride, keeping c
   snapshots. Only windows 0 .. W, W = min (m, C), start before the
   attempt ends, C being the last window that starts inside the slot,
   and every window past window 0 goes to a resumed state. So, with
   q = e^(-lam stride):
   - the windows' probabilities are 1 - e^(-lam lo_1), then
     e^(-lam restore) (1 - q) q^c, then a last, clipped window;
   - the middle windows' continuation
     T(m) = sum_(c = 1)^(min (m, C) - 1) q^c V_(k+1)(m - c, 1)
     advances along the row as T(m + 1) = q (V_(k+1)(m, 1) + T(m)),
     less q^C V_(k+1)(m + 1 - C, 1) once m >= C;
   - the windows' pay-for-use billing telescopes to
     crate (1/lam - (m_lim + 1/lam) e^(-lam m_lim)) + gamma (1 - e^(-lam m_lim))
     over the attempt's span m_lim = min (e_fin, L).
   Each state is O(1). A row reads only the row below it, and the fill
   starts at k_top, the first non-revocable slot at least as long as
   the longest attempt, where every attempt finishes; past 128
   extension doublings the plan never finishes and costs infinity.

   Within a period, a size's cost jumps where an attempt stops fitting
   its slot: at f* = L - restore - m stride, for each slot below k_top
   and each restore. The cells are cut there too, so every cell's cost
   is smooth and its midpoint second-order accurate. *)
let lattice_scorer lat regime m plan emit =
  let open Cost_model in
  let { period; sigma; restore_cost; stride; lam; periods; grid; grid_cdf; _ } = lat in
  let beta = m.beta and gamma = m.gamma in
  let alpha_od = price regime On_demand *. m.alpha in
  let alpha_spot = price regime Spot *. m.alpha in
  let crate = alpha_spot +. beta in
  (* stochlint: allow FLOAT_EQ — intentional exact zero-rate sentinel *)
  let revocable = not (lam = 0.0) in
  let mmax = Array.length lat.qpow - 1 in
  let longest = restore_cost +. (float_of_int (mmax + 1) *. stride) in
  let max_k = Array.length plan.lengths + 128 in
  let rec top k =
    if k >= max_k then None
    else
      match slot plan k with
      | l, On_demand when l >= longest -> Some k
      | l, Spot when l >= longest && not revocable -> Some k
      | _ -> top (k + 1)
  in
  match top 0 with
  | None ->
      emit infinity 1.0 infinity;
      0
  | Some kt ->
      let slots = Array.init (kt + 1) (slot plan) in
      let len = Array.map fst slots in
      let rev = Array.map (function _, Spot -> revocable | _, On_demand -> false) slots in
      let pal = Array.map (function _, Spot -> alpha_spot | _, On_demand -> alpha_od) slots in
      let r0s = [| 0.0; restore_cost |] in
      (* Per slot and restore: snapshots durable at expiry (uncapped),
         the last window C starting inside the slot, that window's
         probability and q^C. *)
      let c_exp =
        Array.map
          (fun r0 ->
            Array.map (fun l -> Attempt.snapshots_by ~stride ~restore:r0 ~cap:max_int l) len)
          r0s
      in
      let c_win =
        Array.mapi
          (fun rho r0 ->
            Array.mapi
              (fun k l ->
                let c = ref c_exp.(rho).(k) in
                while !c >= 1 && r0 +. (float_of_int !c *. stride) >= l do
                  decr c
                done;
                while r0 +. (float_of_int (!c + 1) *. stride) < l do
                  incr c
                done;
                !c)
              len)
          r0s
      in
      let p_last =
        Array.mapi
          (fun rho r0 ->
            Array.mapi
              (fun k l ->
                let c = c_win.(rho).(k) in
                let lo = r0 +. (float_of_int c *. stride) in
                if c >= 1 && rev.(k) then exp (-.lam *. lo) *. -.Float.expm1 (-.lam *. (l -. lo))
                else 0.0)
              len)
          r0s
      in
      let q_last =
        Array.map
          (Array.map (fun c -> if revocable then exp (-.lam *. float_of_int c *. stride) else 0.0))
          c_win
      in
      (* Per slot, the expiry terms: survival e^(-lam L), its
         complement, its bill and the windows' billing over [0, L). *)
      let inv = 1.0 /. lam in
      let surv_l = Array.map (fun l -> if revocable then exp (-.lam *. l) else 0.0) len in
      let miss_l = Array.map (fun l -> if revocable then -.Float.expm1 (-.lam *. l) else 0.0) len in
      let bill_l = Array.mapi (fun k l -> (pal.(k) *. l) +. (beta *. l) +. gamma) len in
      let win_l =
        Array.mapi
          (fun k l ->
            let p = miss_l.(k) in
            if revocable then (crate *. ((p *. inv) -. (l *. surv_l.(k)))) +. (gamma *. p)
            else 0.0)
          len
      in
      let q = exp (-.lam *. stride) in
      let one_q = -.Float.expm1 (-.lam *. stride) in
      let e_r0 = Array.map (fun r0 -> exp (-.lam *. r0)) r0s in
      let p_first = Array.map (fun r0 -> -.Float.expm1 (-.lam *. (r0 +. stride))) r0s in
      (* The cuts: the sub-grid, plus every finish jump, dropping any
         within [tol] of a cut already kept. *)
      let tol = 1e-9 *. period in
      let cells = Array.length grid - 1 in
      let near_grid f =
        let i = Float.round (f *. float_of_int cells /. period) in
        abs_float (f -. (period *. i /. float_of_int cells)) <= tol
      in
      let jumps = ref [] in
      for k = 0 to kt - 1 do
        Array.iter
          (fun r0 ->
            let x = len.(k) -. r0 in
            let mf = if x > period then ceil ((x -. period) /. stride) else 0.0 in
            if mf <= float_of_int mmax then begin
              let f = x -. (mf *. stride) in
              if f > tol && f < period -. tol && not (near_grid f) then jumps := f :: !jumps
            end)
          r0s
      done;
      let jumps =
        List.fold_left
          (fun kept f -> match kept with g :: _ when f -. g <= tol -> kept | _ -> f :: kept)
          [] (List.sort compare !jumps)
        |> List.rev_map (fun f ->
               (f, Array.init periods (fun n -> lat.cdf_at ((float_of_int n *. period) +. f))))
      in
      let cuts =
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          (Array.to_list (Array.mapi (fun i g -> (g, grid_cdf.(i))) grid))
          jumps
        |> Array.of_list
      in
      let states = ref 0 in
      let nf = ref (Array.make (mmax + 1) 0.0) and nr = ref (Array.make (mmax + 1) 0.0) in
      let cf = ref (Array.make (mmax + 1) 0.0) and cr = ref (Array.make (mmax + 1) 0.0) in
      (* Fill V(k, m, rho) for offset [f] and m <= [mm]; row 0's fresh
         values end in [!nf]. *)
      let qpow = lat.qpow in
      let fill f mm =
        states := !states + ((mm + 1) * ((2 * kt) + 1));
        let ef = exp (-.lam *. f) and ef1 = -.Float.expm1 (-.lam *. f) in
        let l = len.(kt) and pa = pal.(kt) in
        for m = 0 to mm do
          let fm = float_of_int m in
          let rem = (fm *. period) +. f in
          !nf.(m) <- (pa *. l) +. (beta *. (rem +. (sigma *. fm))) +. gamma;
          if kt > 0 then
            !nr.(m) <- (pa *. l) +. (beta *. (restore_cost +. rem +. (sigma *. fm))) +. gamma
        done;
        for k = kt - 1 downto 0 do
          let l = len.(k) and pa = pal.(k) in
          let next_r = !nr in
          for rho = 0 to if k = 0 then 0 else 1 do
            let r0 = r0s.(rho) in
            let same = if rho = 0 then !nf else next_r in
            let dst = if rho = 0 then !cf else !cr in
            let ce = c_exp.(rho).(k) in
            if not rev.(k) then
              for m = 0 to mm do
                let fm = float_of_int m in
                let e_fin = r0 +. ((fm *. period) +. f) +. (sigma *. fm) in
                dst.(m) <-
                  (if e_fin <= l then (pa *. l) +. (beta *. e_fin) +. gamma
                   else
                     let c = if ce <= m then ce else m in
                     bill_l.(k) +. if c > 0 then next_r.(m - c) else same.(m))
              done
            else begin
              let cw = c_win.(rho).(k) in
              let pw_c = p_last.(rho).(k) and qc = q_last.(rho).(k) in
              let er0 = e_r0.(rho) and p0 = p_first.(rho) in
              let miss = lat.qmiss.(rho) in
              let a = er0 *. one_q in
              let pe = surv_l.(k) in
              let expiry = (pe *. bill_l.(k)) +. win_l.(k) in
              let p_one = miss_l.(k) in
              let t = ref 0.0 in
              for m = 0 to mm do
                let fm = float_of_int m in
                let e_fin = r0 +. ((fm *. period) +. f) +. (sigma *. fm) in
                let w = if cw <= m then cw else m in
                dst.(m) <-
                  (if e_fin <= l then begin
                     (* Success unless revoked; windows up to e_fin. *)
                     let em = er0 *. qpow.(m) in
                     let surv = em *. ef in
                     (* 1 - surv as (1 - em) + em (1 - ef): both exact,
                        so the billing's 1/lam terms cancel cleanly. *)
                     let om = miss.(m) +. (em *. ef1) in
                     let v =
                       (surv *. ((pa *. l) +. (beta *. e_fin) +. gamma))
                       +. (crate *. ((om *. inv) -. (e_fin *. surv)))
                       +. (gamma *. om)
                     in
                     if w = 0 then v +. (om *. same.(m))
                     else
                       let p_w = if w = m then em *. ef1 else (er0 *. qpow.(w)) -. surv in
                       v +. (p0 *. same.(m)) +. (a *. !t) +. (p_w *. next_r.(m - w))
                   end
                   else begin
                     (* Expiry unless revoked; windows up to L. *)
                     let c = if ce <= m then ce else m in
                     let v = expiry +. (pe *. if c > 0 then next_r.(m - c) else same.(m)) in
                     if w = 0 then v +. (p_one *. same.(m))
                     else
                       let p_w = if w = cw then pw_c else (er0 *. qpow.(w)) -. pe in
                       v +. (p0 *. same.(m)) +. (a *. !t) +. (p_w *. next_r.(m - w))
                   end);
                if m >= 1 && cw >= 2 then
                  t :=
                    (q *. (next_r.(m) +. !t))
                    -. if m >= cw then qc *. next_r.(m + 1 - cw) else 0.0
              done
            end
          done;
          let tf = !nf and tr = !nr in
          nf := !cf;
          nr := !cr;
          cf := tf;
          cr := tr
        done
      in
      for j = 0 to Array.length cuts - 2 do
        let lo, lo_cdf = cuts.(j) and hi, hi_cdf = cuts.(j + 1) in
        (* The table need not run past the last n the cell weighs. *)
        let top_n = ref (-1) in
        for n = 0 to periods - 1 do
          if hi_cdf.(n) -. lo_cdf.(n) > 0.0 then top_n := n
        done;
        if !top_n >= 0 then begin
          let f = 0.5 *. (lo +. hi) in
          fill f !top_n;
          for n = 0 to !top_n do
            let w = hi_cdf.(n) -. lo_cdf.(n) in
            if w > 0.0 then emit ((float_of_int n *. period) +. f) w !nf.(n)
          done
        end
      done;
      (match lat.rest with
      | None -> ()
      | Some { r_m; r_f; r_weight } ->
          fill r_f r_m;
          emit ((float_of_int r_m *. period) +. r_f) r_weight !nf.(r_m));
      !states

let evaluator_nodes ~disc_n ~eps regime m d =
  match regime.recovery with
  | Restart -> restart_nodes ~disc_n ~eps regime m d
  | Snapshot { period; snapshot_cost; restore_cost } ->
      let lat =
        lattice ~disc_n ~eps ~period ~sigma:snapshot_cost ~restore_cost
          ~lam:regime.revocation_rate d
      in
      lattice_scorer lat regime m

let check_discretization ~disc_n ~eps =
  if disc_n <= 0 then invalid_arg "Spot_cost.evaluator: disc_n must be positive";
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Spot_cost.evaluator: eps must be in (0, 1)"

let scorer ?(disc_n = 2000) ?(eps = 1e-9) regime m d =
  check_discretization ~disc_n ~eps;
  let general =
    lazy
      (let score = evaluator_nodes ~disc_n ~eps regime m d in
       fun plan ->
         let acc = Numerics.Kahan.create () in
         let states = score plan (fun _ w v -> Numerics.Kahan.add acc (w *. v)) in
         { cost = Numerics.Kahan.sum acc; states })
  in
  if is_degenerate regime then
    (* The Eq. (4) series assumes increasing reservation lengths
       (success at slot k means t <= t_k); flat chunked plans need the
       walk-based recursion even in the degenerate regime. *)
    fun plan ->
      if strictly_increasing plan then
        { cost = Expected_cost.exact m d (to_sequence plan); states = 0 }
      else (Lazy.force general) plan
  else Lazy.force general

let evaluator ?disc_n ?eps regime m d =
  let score = scorer ?disc_n ?eps regime m d in
  fun plan -> (score plan).cost

let expected_cost ?disc_n ?eps regime m d plan = (evaluator ?disc_n ?eps regime m d) plan

let nodes ?(disc_n = 2000) ?(eps = 1e-9) regime m d plan =
  check_discretization ~disc_n ~eps;
  let acc = ref [] in
  let _states : int =
    evaluator_nodes ~disc_n ~eps regime m d plan (fun size weight value ->
        acc := { size; weight; value } :: !acc)
  in
  Array.of_list (List.rev !acc)
