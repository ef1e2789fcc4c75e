module Dist = Distributions.Dist

type params = { checkpoint_cost : float; restart_cost : float }

let make_params ~checkpoint_cost ~restart_cost =
  let ok v = Float.is_finite v && v >= 0.0 in
  if not (ok checkpoint_cost && ok restart_cost) then
    invalid_arg "Checkpoint.make_params: overheads must be finite and nonnegative";
  { checkpoint_cost; restart_cost }

let cost_of_run ?(max_steps = 100_000) p m s t =
  let open Cost_model in
  let cost = Numerics.Kahan.create () in
  let rec go k progress s =
    if k > max_steps then raise (Sequence.Not_covered t);
    match Seq.uncons s with
    | None -> raise (Sequence.Not_covered t)
    | Some (l, rest) ->
        let restart = if k = 1 then 0.0 else p.restart_cost in
        (* Time available for real work if we do NOT checkpoint (the
           success case): the slot minus the restore. *)
        let usable_no_ckpt = l -. restart in
        if progress +. usable_no_ckpt >= t then begin
          (* Success: pay the reserved length at alpha, and only the
             time actually consumed (restore + remaining work) at
             beta. *)
          let used = restart +. (t -. progress) in
          Numerics.Kahan.add cost
            ((m.alpha *. l) +. (m.beta *. used) +. m.gamma);
          (k, Numerics.Kahan.sum cost)
        end
        else begin
          (* Failure: the whole slot is consumed; work completed after
             restore and checkpoint overheads is preserved. *)
          Numerics.Kahan.add cost ((m.alpha *. l) +. (m.beta *. l) +. m.gamma);
          let gained = Float.max 0.0 (l -. restart -. p.checkpoint_cost) in
          if gained <= 0.0 && k > 1 then
            (* No progress is possible with slots this short relative
               to the overheads: the run can never finish. *)
            raise (Sequence.Not_covered t);
          go (k + 1) (progress +. gained) rest
        end
  in
  go 1 0.0 s

(* [expected_cost] stops once the remaining tail mass drops below
   [tail_eps], and calls a strategy still running after [max_slots]
   slots one that never finishes. *)
let tail_eps = 1e-12
let max_slots = 500_000

let expected_cost p m d s =
  (* Exact closed-form expectation: a job of duration t succeeds at the
     first reservation k with t <= c_k, where c_k = progress_(k-1) +
     (l_k - restart_k) is the coverage reached by slot k. On the slab
     (c_(k-1), c_k] the cost is affine in t, so each slab contributes

       mass_k * (prefix_k + alpha l_k + gamma + beta (restart_k -
                 progress_(k-1)))
       + beta * (partial expectation of X over the slab)

     with the partial expectation computed from the conditional mean:
     int_a^b t f(t) dt = cm(a) sf(a) - cm(b) sf(b). This makes the
     evaluation O(number of slots) with no quadrature, which matters
     for the chunk optimizer (tiny chunks mean tens of thousands of
     slots). Strategies that stop making progress evaluate to
     [infinity]. *)
  let open Cost_model in
  let upper = Dist.upper d in
  let partial_expect a b =
    let pa = if a <= 0.0 then d.Dist.mean else d.Dist.conditional_mean a *. Dist.sf d a in
    let pb =
      let sfb = Dist.sf d b in
      if sfb <= 0.0 then 0.0 else d.Dist.conditional_mean b *. sfb
    in
    Float.max 0.0 (pa -. pb)
  in
  let acc = Numerics.Kahan.create () in
  let rec go k prefix progress c_prev s =
    if k > max_slots then infinity
    else
      match Seq.uncons s with
      | None -> if Dist.sf d c_prev > tail_eps then infinity else Numerics.Kahan.sum acc
      | Some (l, rest) ->
          let restart = if k = 1 then 0.0 else p.restart_cost in
          let c_k = progress +. (l -. restart) in
          if c_k <= c_prev then begin
            (* This slot covers nothing new; if it also gains no
               progress the strategy can never finish. *)
            let gained = Float.max 0.0 (l -. restart -. p.checkpoint_cost) in
            if gained <= 0.0 then infinity
            else begin
              let prefix' =
                prefix +. (m.alpha *. l) +. (m.beta *. l) +. m.gamma
              in
              go (k + 1) prefix' (progress +. gained) c_prev rest
            end
          end
          else begin
            let mass = Float.max 0.0 (d.Dist.cdf c_k -. d.Dist.cdf c_prev) in
            if mass > 0.0 then begin
              let const_part =
                prefix +. (m.alpha *. l) +. m.gamma
                +. (m.beta *. (restart -. progress))
              in
              Numerics.Kahan.add acc (mass *. const_part);
              if m.beta > 0.0 then
                Numerics.Kahan.add acc
                  (m.beta *. partial_expect (Float.max c_prev 0.0) c_k)
            end;
            if Dist.sf d c_k <= tail_eps || c_k >= upper then
              Numerics.Kahan.sum acc
            else begin
              let gained = Float.max 0.0 (l -. restart -. p.checkpoint_cost) in
              let prefix' =
                prefix +. (m.alpha *. l) +. (m.beta *. l) +. m.gamma
              in
              if gained <= 0.0 then infinity
              else go (k + 1) prefix' (progress +. gained) c_k rest
            end
          end
  in
  go 1 0.0 0.0 0.0 s

let periodic ~chunk p =
  if chunk <= 0.0 then invalid_arg "Checkpoint.periodic: chunk must be > 0";
  let first = chunk +. p.checkpoint_cost in
  let later = p.restart_cost +. chunk +. p.checkpoint_cost in
  Seq.unfold
    (fun i -> Some ((if i = 0 then first else later), i + 1))
    0

let optimize_chunk ?(m = 400) p cost d ~chunk_upper =
  if chunk_upper <= 0.0 then
    invalid_arg "Checkpoint.optimize_chunk: chunk_upper must be > 0";
  let step = chunk_upper /. float_of_int m in
  let best_chunk = ref nan and best_cost = ref infinity in
  for i = 1 to m do
    let chunk = float_of_int i *. step in
    let c = expected_cost p cost d (periodic ~chunk p) in
    if Float.is_finite c && c < !best_cost then begin
      best_cost := c;
      best_chunk := chunk
    end
  done;
  if Float.is_nan !best_chunk then
    invalid_arg "Checkpoint.optimize_chunk: no feasible chunk";
  (!best_chunk, !best_cost)

