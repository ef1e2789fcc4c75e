(* Workload [serve]: the strategy daemon behind one waiting client. One
   op is one [Server.handle_line] on a server built as the [serve]
   subcommand builds it ([default_config]: 1,024-entry LRU, grid 0.05,
   quick budget; default metrics registry on), with no journal and no
   deadline, so shedding cannot make answers depend on timing.

   A pass is 2,000 requests: 20 stats, 100 fits (200 samples each, 32
   tenants) and 1,880 solves, of which 188 name a tenant and 1,692 draw
   an explicit LogNormal point Zipf(1) from 4,096 points, four times the
   cache. Each point sits one quantization bucket from its neighbours
   and carries its model, half ReservationOnly and half "hpc". Every
   pass holds the same quotas (the rare points rotate between passes by
   systematic sampling) and the seed only orders the pass and draws the
   fit samples, so a run's mix depends neither on the seed nor on where
   the run stops. The set-up fills the cache to capacity with two
   passes, so the timed part runs at a steady hit rate. *)

open Common
module J = Stochobs.Json
module Server = Stochserve.Server

let points = 4096
let tenants = 32
let fit_samples = 200
let pass_stats = 20
let pass_fits = 100
let pass_tenant_solves = 188
let pass_point_solves = 1692
let pass_len = pass_stats + pass_fits + pass_tenant_solves + pass_point_solves
let warmup_passes = 2

(* Point [k]: mu and sigma sit on exact powers of the 0.05 grid, so
   every point has its own cache key. mu runs from 0.2 to 4.3 over 64
   steps, which covers Table 1's LogNormal (mu 3) and the tenants' 1 to
   4; sigma runs from 0.31 to 1.41 over 32. *)
let point k =
  let j = k lsr 1 in
  let g = 1.0 +. Stochserve.Quantize.default_grid in
  (g ** float_of_int ((j mod 64) - 33), g ** float_of_int ((j / 64) - 24), k land 1 = 1)

(* The popularity ranking and the tenants' true laws are part of the
   workload and come from this fixed seed. *)
let population_seed = 2019

type population = {
  rank_point : int array;  (** Rank -> point. *)
  quota : float array;  (** Cumulative Zipf(1) requests per pass, by rank. *)
  truth : (float * float) array;  (** Each tenant's true (mu, sigma). *)
}

let population () =
  let rng = Randomness.Rng.create ~seed:population_seed () in
  let rank_point = Array.init points Fun.id in
  Randomness.Rng.shuffle rng rank_point;
  let harmonic = ref 0.0 in
  for r = 1 to points do
    harmonic := !harmonic +. (1.0 /. float_of_int r)
  done;
  let quota = Array.make points 0.0 in
  let acc = ref 0.0 in
  for r = 0 to points - 1 do
    acc := !acc +. (float_of_int pass_point_solves /. float_of_int (r + 1) /. !harmonic);
    quota.(r) <- !acc
  done;
  let truth =
    Array.init tenants (fun _ ->
        let mu = Randomness.Rng.uniform rng 1.0 4.0 in
        (mu, Randomness.Rng.uniform rng 0.3 1.0))
  in
  { rank_point; quota; truth }

type kind = Stats | Fit of int | Tenant_solve of int * bool | Point_solve of int

(* The requests of pass [k], before ordering. Points get their Zipf
   quota by systematic sampling with the pass's own offset, so the
   fractional tail of the distribution rotates through the passes. *)
let pass_kinds pop k =
  let offset = Float.rem (float_of_int k *. 0.6180339887498949) 1.0 in
  let count r =
    let lo = if r = 0 then 0.0 else pop.quota.(r - 1) in
    (* The last cumulative quota is pinned so a pass always holds
       exactly [pass_point_solves] point solves. *)
    let hi = if r = points - 1 then float_of_int pass_point_solves else pop.quota.(r) in
    int_of_float (Float.floor (hi +. offset)) - int_of_float (Float.floor (lo +. offset))
  in
  let solves =
    List.concat
      (List.init points (fun r -> List.init (count r) (fun _ -> Point_solve pop.rank_point.(r))))
  in
  let cycle n f = List.init n (fun i -> f ((k * n) + i)) in
  Array.of_list
    (List.init pass_stats (fun _ -> Stats)
    @ cycle pass_fits (fun i -> Fit (i mod tenants))
    @ cycle pass_tenant_solves (fun i -> Tenant_solve (i mod tenants, i / tenants mod 2 = 1))
    @ solves)

let model_json hpc =
  if hpc then J.Str "hpc"
  else J.Obj [ ("alpha", J.Num 1.0); ("beta", J.Num 0.0); ("gamma", J.Num 0.0) ]

let tenant_name t = Printf.sprintf "tenant-%02d" t

(* The request line of one kind; fit samples come from [rng]. *)
let render pop rng id kind =
  let body =
    match kind with
    | Stats -> [ ("kind", J.Str "stats") ]
    | Fit t ->
        let mu, sigma = pop.truth.(t) in
        let xs =
          Distributions.Dist.samples (Distributions.Lognormal.make ~mu ~sigma) rng fit_samples
        in
        [ ("kind", J.Str "fit"); ("tenant", J.Str (tenant_name t));
          ("samples", J.Arr (Array.to_list (Array.map (fun x -> J.Num x) xs))) ]
    | Tenant_solve (t, hpc) ->
        [ ("kind", J.Str "solve"); ("dist", J.Obj [ ("tenant", J.Str (tenant_name t)) ]);
          ("model", model_json hpc) ]
    | Point_solve p ->
        let mu, sigma, hpc = point p in
        [ ("kind", J.Str "solve");
          ( "dist",
            J.Obj [ ("family", J.Str "lognormal"); ("mu", J.Num mu); ("sigma", J.Num sigma) ] );
          ("model", model_json hpc) ]
  in
  J.to_string ~indent:false (J.Obj (("id", J.Num (float_of_int id)) :: body))

type replica = {
  server : Server.t;
  filled : (string, string) Hashtbl.t;  (** Key -> sequence its last miss returned. *)
  mutable next_id : int;
}

(* Send one line and check the reply: it parses, echoes the id, says
   ok:true, and a hit returns the sequence of the miss that filled its
   key. *)
let send r l =
  let id = r.next_id in
  r.next_id <- id + 1;
  let latency, (resp, _) = time (fun () -> Server.handle_line r.server l) in
  let result ?(norm_cost = nan) ok cls exact =
    { latency; ok; cls; exact = Printf.sprintf "%d %s" id exact; norm_cost; spot_ratio = nan;
      plans = 0 }
  in
  match Option.map J.of_string resp with
  | None -> result false "error" "no response"
  | Some (Error msg) -> result false "error" msg
  | Some (Ok j) -> (
      let ok =
        J.member "id" j = Some (J.Num (float_of_int id)) && J.member "ok" j = Some (J.Bool true)
      in
      let num name = match J.member name j with Some (J.Num v) -> v | _ -> nan in
      match (J.member "kind" j, J.member "cached" j, J.member "key" j, J.member "sequence" j) with
      | Some (J.Str "solve"), Some (J.Bool cached), Some (J.Str key), Some seq ->
          let seq = J.to_string ~indent:false seq in
          let consistent =
            if cached then Hashtbl.find_opt r.filled key = Some seq
            else begin
              Hashtbl.replace r.filled key seq;
              true
            end
          in
          let cls = if cached then "hit" else "miss" in
          result ~norm_cost:(num "normalized") (ok && consistent) cls
            (Printf.sprintf "%s %s %s %s" cls key (Digest.to_hex (Digest.string seq))
               (bits (num "normalized")))
      | Some (J.Str "fit"), _, _, _ ->
          result ok "fit" (Printf.sprintf "fit %s %s" (bits (num "mu")) (bits (num "sigma")))
      | _ ->
          (* stats: its payload carries uptimes and latencies, so only
             its success is exact. *)
          result ok "stats" (Printf.sprintf "stats %b" ok))

let setup ~seed ~view:_ ~obs =
  let config = Server.default_config in
  let pop = population () in
  let rng = Randomness.Rng.create ~seed () in
  let r = { server = Server.create ~obs config; filled = Hashtbl.create 4096; next_id = 0 } in
  let pass_index = ref 0 in
  let lines = ref [||] in
  (* The lines of the next pass, in the seeded order. *)
  let start_pass () =
    let kinds = pass_kinds pop !pass_index in
    Randomness.Rng.shuffle rng kinds;
    lines := Array.mapi (fun i kind -> render pop rng (r.next_id + i) kind) kinds;
    incr pass_index
  in
  let send_checked l =
    let o = send r l in
    if not o.ok then failwith ("serve warm-up: " ^ o.exact)
  in
  (* Warm-up prefix: fit every tenant, then whole passes until the cache
     holds [cache_capacity] entries. *)
  for t = 0 to tenants - 1 do
    send_checked (render pop rng r.next_id (Fit t))
  done;
  while !pass_index < warmup_passes || Hashtbl.length r.filled < config.Server.cache_capacity do
    start_pass ();
    Array.iter send_checked !lines
  done;
  let run_op ~obs:_ i =
    if i = 0 then start_pass ();
    send r !lines.(i)
  in
  (* The solver layers are timed on four of the pass's explicit points,
     solved as the server solves them. *)
  let inputs ~obs =
    let budget = config.Server.budget in
    let solved =
      Array.to_list (pass_kinds pop (!pass_index - 1))
      |> List.filter_map (function Point_solve p -> Some p | _ -> None)
      |> List.sort_uniq compare
      |> List.filteri (fun i _ -> i < 4)
      |> List.map (fun p ->
             let mu, sigma, hpc = point p in
             let law = Distributions.Lognormal.make ~mu ~sigma in
             let model =
               if hpc then Stochastic_core.Cost_model.neuro_hpc
               else Stochastic_core.Cost_model.reservation_only
             in
             { Layers.model; law;
               solution = Layers.solve_or_fail ~obs ~budget ~seed:config.Server.seed model law;
               candidates = budget.Robust.Solver.bf_candidates })
    in
    { Layers.solved; spot = []; lines = Array.to_list !lines }
  in
  { Workload.run_op; inputs }

let workload =
  {
    Workload.name = "serve";
    ops_per_pass = pass_len;
    replicas = 3;
    cheap_setup = false;
    pass_s = 0.85;
    min_ops = 1;
    center = `Median;
    clock_free_alloc = false;
    seed_keyed = true;
    setup;
  }
