module Spot_cost = Stochastic_core.Spot_cost
module Trace = Stochobs.Trace

type result = {
  reps : int;
  mean_cost : float;
  stderr : float;
  attempts : int;
  revocations : int;
  resumes : int;
  incomplete : int;
}

let run ?(obs = Trace.null) ?(reps = 10_000) ?(seed = 42) regime m d plan =
  if reps <= 0 then invalid_arg "Spot_sim.run: reps must be positive";
  let max_slots = Array.length plan.Spot_cost.lengths + 128 in
  let rate = regime.Spot_cost.revocation_rate in
  let revocation_mtbf = if rate > 0.0 then 1.0 /. rate else infinity in
  let faults =
    Faults.create (Faults.make ~seed (Faults.exponential ~mtbf:revocation_mtbf)) ~nodes:reps
  in
  let sizes = Distributions.Dist.samples d (Randomness.Rng.create ~seed ()) reps in
  Trace.with_span obs "scheduler.spot_sim.run"
    ~attrs:
      [
        ("reps", Trace.Int reps);
        ("rate", Trace.Num rate);
        ("price_ratio", Trace.Num regime.Spot_cost.price_ratio);
        ("slots", Trace.Int (Array.length plan.Spot_cost.lengths));
      ]
  @@ fun () ->
  let sum = Numerics.Kahan.create () in
  let sumsq = Numerics.Kahan.create () in
  let attempts = ref 0 in
  let revocations = ref 0 in
  let resumes = ref 0 in
  let incomplete = ref 0 in
  for i = 0 to reps - 1 do
    let total = sizes.(i) in
    let cost = ref 0.0 in
    let progress = ref 0.0 in
    let finished = ref false in
    let k = ref 0 in
    while (not !finished) && !k < max_slots do
      let length, tier = Spot_cost.slot plan !k in
      let revocation =
        match tier with
        | Spot_cost.On_demand -> infinity
        | Spot_cost.Spot -> Faults.uptime faults ~node:i
      in
      if !progress > 0.0 then incr resumes;
      let o =
        Spot_cost.slot_outcome regime m ~tier ~length ~progress:!progress ~total
          ~revocation
      in
      incr attempts;
      if o.Spot_cost.revoked then incr revocations;
      cost := !cost +. o.Spot_cost.billed;
      progress := o.Spot_cost.progress;
      finished := o.Spot_cost.finished;
      incr k
    done;
    if not !finished then incr incomplete;
    Numerics.Kahan.add sum !cost;
    Numerics.Kahan.add sumsq (!cost *. !cost)
  done;
  let n = float_of_int reps in
  let mean = Numerics.Kahan.sum sum /. n in
  let var = Float.max 0.0 ((Numerics.Kahan.sum sumsq /. n) -. (mean *. mean)) in
  let std_err = sqrt (var /. n) in
  Trace.annotate obs
    [
      ("mean_cost", Trace.Num mean);
      ("revocations", Trace.Int !revocations);
      ("incomplete", Trace.Int !incomplete);
    ];
  {
    reps;
    mean_cost = mean;
    stderr = std_err;
    attempts = !attempts;
    revocations = !revocations;
    resumes = !resumes;
    incomplete = !incomplete;
  }
