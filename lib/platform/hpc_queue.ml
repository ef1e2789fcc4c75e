type job_record = { requested : float; wait : float }
type log = job_record array

(* Longest requested runtime of the synthetic log, hours. *)
let max_requested = 12.0

let synthetic_log ?(jobs = 5000) ?(alpha = 0.95) ?(gamma = 1.05)
    ?(noise = 0.35) rng =
  if jobs <= 0 then invalid_arg "Hpc_queue.synthetic_log: jobs must be > 0";
  Array.init jobs (fun _ ->
      (* Log-uniform requested runtimes: many short requests, few long
         ones, as in production batch logs. *)
      let u = Randomness.Rng.float_open rng in
      let requested = max_requested ** u *. (0.25 ** (1.0 -. u)) in
      let base = (alpha *. requested) +. gamma in
      let mult =
        if noise > 0.0 then begin
          (* LogNormal multiplicative noise with unit mean and
             coefficient of variation [noise]. *)
          let sigma2 = log (1.0 +. (noise *. noise)) in
          Randomness.Sampler.lognormal rng ~mu:(-.sigma2 /. 2.0)
            ~sigma:(sqrt sigma2)
        end
        else 1.0
      in
      { requested; wait = Float.max 0.0 (base *. mult) })

type binned = { centers : float array; mean_waits : float array }

(* A buggy trace (NaN or negative waits, non-positive requests) would
   otherwise flow through binning and OLS and come out as NaN
   (alpha, gamma); reject it at the boundary with a diagnostic. *)
let validate_log log =
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r.requested) || r.requested <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Hpc_queue: record %d has invalid requested runtime %g (must be \
              positive and finite)"
             i r.requested);
      if not (Float.is_finite r.wait) || r.wait < 0.0 then
        invalid_arg
          (Printf.sprintf
             "Hpc_queue: record %d has invalid wait %g (must be nonnegative \
              and finite)"
             i r.wait))
    log

let bin_log ?(groups = 20) log =
  let n = Array.length log in
  if groups <= 0 then invalid_arg "Hpc_queue.bin_log: groups must be > 0";
  if n < groups then invalid_arg "Hpc_queue.bin_log: fewer jobs than groups";
  validate_log log;
  let sorted = Array.copy log in
  Array.sort (fun a b -> compare a.requested b.requested) sorted;
  let centers = Array.make groups 0.0 in
  let mean_waits = Array.make groups 0.0 in
  for g = 0 to groups - 1 do
    let lo = g * n / groups in
    let hi = ((g + 1) * n / groups) - 1 in
    let creq = Numerics.Kahan.create () and cw = Numerics.Kahan.create () in
    for i = lo to hi do
      Numerics.Kahan.add creq sorted.(i).requested;
      Numerics.Kahan.add cw sorted.(i).wait
    done;
    let count = float_of_int (hi - lo + 1) in
    centers.(g) <- Numerics.Kahan.sum creq /. count;
    mean_waits.(g) <- Numerics.Kahan.sum cw /. count
  done;
  { centers; mean_waits }

let fit b =
  let spread =
    Array.length b.centers > 0
    && Array.exists (fun c -> c <> b.centers.(0)) b.centers
  in
  if not spread then
    invalid_arg
      "Hpc_queue.fit: all requested-runtime bins are equal — an affine wait \
       model cannot be identified from a degenerate log";
  Numerics.Regression.ols ~x:b.centers ~y:b.mean_waits

let cost_model_of_fit ?(beta = 1.0) (f : Numerics.Regression.fit) =
  if f.Numerics.Regression.slope <= 0.0 then
    invalid_arg "Hpc_queue.cost_model_of_fit: fitted slope must be positive";
  if f.Numerics.Regression.intercept < 0.0 then
    invalid_arg "Hpc_queue.cost_model_of_fit: fitted intercept must be >= 0";
  Stochastic_core.Cost_model.make ~alpha:f.Numerics.Regression.slope ~beta
    ~gamma:f.Numerics.Regression.intercept ()

