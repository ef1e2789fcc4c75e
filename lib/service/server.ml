module J = Stochobs.Json
module Trace = Stochobs.Trace
module M = Stochobs.Metrics
module Dist = Distributions.Dist
module Solver = Robust.Solver

type config = {
  cache_capacity : int;
  grid : float;
  budget : Solver.budget;
  seed : int;
  deadline : float option;
  max_line_bytes : int;
  shed_threshold : int;
}

let default_config =
  {
    cache_capacity = 1024;
    grid = Quantize.default_grid;
    budget = Solver.quick_budget;
    seed = 42;
    deadline = None;
    max_line_bytes = 1_048_576;
    shed_threshold = 3;
  }

let check_config config =
  if config.cache_capacity < 1 then
    Error
      (Printf.sprintf "cache capacity must be >= 1, got %d"
         config.cache_capacity)
  else if
    match config.deadline with
    | None -> false
    | Some d -> not (Float.is_finite d && d > 0.0)
  then
    Error
      (Printf.sprintf "request deadline must be finite and > 0, got %g"
         (Option.value config.deadline ~default:Float.nan))
  else if config.max_line_bytes < 64 then
    Error
      (Printf.sprintf "max line bytes must be >= 64, got %d"
         config.max_line_bytes)
  else if config.shed_threshold < 1 then
    Error
      (Printf.sprintf "shed threshold must be >= 1, got %d"
         config.shed_threshold)
  else
    match Quantize.check_grid config.grid with
    | Error msg -> Error msg
    | Ok _ -> Ok config

type counters = {
  mutable solve : int;
  mutable fit : int;
  mutable stats : int;
  mutable metrics : int;
  mutable shutdown : int;
  mutable errors : int;
  mutable shed : int;  (* responses answered degraded under shedding *)
  mutable deadline_exceeded : int;
  mutable journal_errors : int;  (* appends/compactions lost to I/O *)
}

(* A cached answer keeps its rendered response tail, so a hit renders
   only the few fields that name the request. *)
type entry = { solved : Protocol.solved; tail : string }

let entry solved = { solved; tail = Protocol.solved_tail solved }

type t = {
  config : config;
  obs : Trace.sink;
  clock : Stochobs.Clock.t;
  registry : M.t;
  cache : entry Cache.t;
  tenants : Tenants.t;
  journal : Journal.t option;
  requests : counters;
  start : float;
  (* Overload state: consecutive near-deadline requests build
     pressure; enough pressure flips the server into shedding mode
     (cheap mean-doubling answers, [degraded: true] on the wire) until
     fast requests drain it back to zero. *)
  mutable pressure : int;
  mutable shedding : bool;
  (* Rolling window of the most recent request latencies; the p99 over
     it is a live health gauge, cheaper and fresher than the lifetime
     histogram (which never forgets a cold start). *)
  lat_window : float array;
  mutable lat_seen : int;
  (* The window's two largest latencies under [Float.compare], NaN
     while unfilled: the nearest-rank p99 of n <= 128 values is one of
     them. *)
  mutable lat_top1 : float;
  mutable lat_top2 : float;
  (* Registry instruments, registered once at creation. *)
  m_hits : M.counter;
  m_misses : M.counter;
  m_evictions : M.counter;
  m_cold : M.counter;
  m_req_solve : M.counter;
  m_req_fit : M.counter;
  m_req_stats : M.counter;
  m_req_metrics : M.counter;
  m_req_shutdown : M.counter;
  m_errors : M.counter;
  m_size : M.gauge;
  m_latency : M.histogram;
  m_j_appended : M.counter;
  m_j_compactions : M.counter;
  m_j_errors : M.counter;
  m_deadline_exceeded : M.counter;
  m_shed : M.counter;
  m_p99_window : M.gauge;
}

(* At most 128 entries: the nearest-rank p99 of n <= 128 values is
   among their 2 largest, which the server keeps as requests arrive. *)
let window_size = 128

let create ?(obs = Trace.null) ?(clock = Stochobs.Clock.wall)
    ?(metrics = M.default) ?journal config =
  (match check_config config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Server.create: " ^ msg));
  let cache = Cache.create ~capacity:config.cache_capacity in
  (* Warm the cache from the journal before taking requests: replay in
     append order, so a later record for the same key wins and the
     recency order matches the writing server's. *)
  (match journal with
  | None -> ()
  | Some j ->
      List.iter
        (fun { Journal.key; solved } -> ignore (Cache.put cache key (entry solved)))
        (Journal.recovered j);
      let s = Journal.stats j in
      M.add
        (M.counter metrics "service.journal.recovered")
        s.Journal.recovered_records;
      M.add
        (M.counter metrics "service.journal.skipped")
        s.Journal.skipped_corrupt);
  {
    config;
    obs;
    clock;
    registry = metrics;
    cache;
    tenants = Tenants.create ();
    journal;
    requests =
      {
        solve = 0;
        fit = 0;
        stats = 0;
        metrics = 0;
        shutdown = 0;
        errors = 0;
        shed = 0;
        deadline_exceeded = 0;
        journal_errors = 0;
      };
    start = clock ();
    pressure = 0;
    shedding = false;
    lat_window = Array.make window_size 0.0;
    lat_seen = 0;
    lat_top1 = nan;
    lat_top2 = nan;
    m_hits = M.counter metrics "service.cache.hits";
    m_misses = M.counter metrics "service.cache.misses";
    m_evictions = M.counter metrics "service.cache.evictions";
    m_cold = M.counter metrics "service.solves.cold";
    m_req_solve = M.counter metrics "service.requests.solve";
    m_req_fit = M.counter metrics "service.requests.fit";
    m_req_stats = M.counter metrics "service.requests.stats";
    m_req_metrics = M.counter metrics "service.requests.metrics";
    m_req_shutdown = M.counter metrics "service.requests.shutdown";
    m_errors = M.counter metrics "service.requests.errors";
    m_size = M.gauge metrics "service.cache.size";
    m_latency =
      M.histogram metrics "service.request.seconds"
        ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |];
    m_j_appended = M.counter metrics "service.journal.appended";
    m_j_compactions = M.counter metrics "service.journal.compactions";
    m_j_errors = M.counter metrics "service.journal.errors";
    m_deadline_exceeded = M.counter metrics "service.deadline.exceeded";
    m_shed = M.counter metrics "service.shed.responses";
    m_p99_window = M.gauge metrics "service.request.p99_window";
  }

(* Nearest-rank p99 over the filled part of the rolling window; 0.0
   before the first completed request. The rank is the largest or the
   second largest value. *)
let window_p99 t =
  let n = min t.lat_seen window_size in
  if n = 0 then 0.0
  else if Numerics.Stats.nearest_rank n 0.99 = n then t.lat_top1
  else t.lat_top2

(* NaN sorts below every number under [Float.compare], so it also
   stands for an empty slot. *)
let push_top t x =
  if Float.compare x t.lat_top1 > 0 then begin
    t.lat_top2 <- t.lat_top1;
    t.lat_top1 <- x
  end
  else if Float.compare x t.lat_top2 > 0 then t.lat_top2 <- x

(* A latency leaving the window is dropped from the two largest by a
   pass over the window; that happens only when it was one of them. *)
let record_latency t elapsed =
  let slot = t.lat_seen mod window_size in
  let leaving = t.lat_window.(slot) in
  t.lat_window.(slot) <- elapsed;
  t.lat_seen <- t.lat_seen + 1;
  if t.lat_seen > window_size && Float.compare leaving t.lat_top2 >= 0 then begin
    t.lat_top1 <- nan;
    t.lat_top2 <- nan;
    Array.iter (push_top t) t.lat_window
  end
  else push_top t elapsed;
  M.set t.m_p99_window (window_p99 t)

let close t =
  match t.journal with
  | None -> ()
  | Some j -> (
      (* Graceful shutdown: make sure every record is on disk. A
         failure here must not mask the shutdown itself. *)
      try
        Journal.flush j;
        Journal.close j
      with Sys_error _ -> t.requests.journal_errors <- t.requests.journal_errors + 1)

(* --------------------------- solve handling ------------------------ *)

(* Resolve the request's distribution spec to a distribution plus the
   (family, params) pair that keys the cache. Named registry
   distributions are fixed instantiations, so they key on the name
   alone; explicit and tenant-fitted LogNormals key on their quantized
   parameters — that collapse is the whole point of the service. A
   LogNormal is checked here but built only on a cache miss: a hit
   needs its key, not its law. *)
let resolve_dist t ~hpc (spec : Protocol.dist_spec) =
  let lognormal ~mu ~sigma =
    match Distributions.Lognormal.check ~sigma with
    | () ->
        Ok
          ( lazy (Distributions.Lognormal.make ~mu ~sigma),
            "lognormal",
            [ ("mu", mu); ("sigma", sigma) ] )
    | exception Invalid_argument msg ->
        Error (Protocol.invalid_distribution_error msg)
  in
  match spec with
  | Protocol.Named name -> (
      match Resolve.dist ~hpc name with
      | Ok d -> Ok (Lazy.from_val d, "named:" ^ String.lowercase_ascii name, [])
      | Error msg -> Error (Protocol.usage_error msg))
  | Protocol.Lognormal { mu; sigma } -> lognormal ~mu ~sigma
  | Protocol.Tenant id -> (
      match Tenants.find t.tenants id with
      | Some fit -> lognormal ~mu:fit.mu ~sigma:fit.sigma
      | None ->
          Error
            (Protocol.usage_error
               (Printf.sprintf
                  "unknown tenant %S (send a fit request first)" id)))

let resolve_model (spec : Protocol.model_spec) =
  match spec with
  | Protocol.Hpc -> Ok Stochastic_core.Cost_model.neuro_hpc
  | Protocol.Affine { alpha; beta; gamma } -> (
      match Resolve.model ~hpc:false ~alpha ~beta ~gamma with
      | Ok m -> Ok m
      | Error msg -> Error { Protocol.code = 7; label = "invalid-parameter";
                             detail = msg })

(* The request's budget fields over the configured base; the request
   deadline caps the time budget: clients may ask for more, the
   watchdog wins. *)
let budget_of t (b : Protocol.budget_spec) =
  let budget =
    Solver.override ?m:b.m ?n:b.n ?disc_n:b.disc_n ?max_seconds:b.max_seconds
      ?max_evaluations:b.max_evaluations t.config.budget
  in
  match t.config.deadline with
  | None -> budget
  | Some d ->
      Solver.override ~max_seconds:(Float.min budget.Solver.max_seconds d)
        budget

let head_prefix ~count head =
  if Array.length head <= count then head else Array.sub head 0 count

(* Heuristic strategies outside the robust cascade: build and evaluate
   directly, converting any escape into a typed non-convergence. The
   daemon must answer with a structured error, never die. *)
let solve_direct strategy model d ~count =
  match
    let seq = strategy.Stochastic_core.Strategy.build model d in
    let head = Array.of_list (Stochastic_core.Sequence.take count seq) in
    let cost = Stochastic_core.Expected_cost.exact model d seq in
    (head, cost)
  with
  | head, cost when Float.is_finite cost ->
      Ok
        {
          Protocol.dist_name = d.Dist.name;
          tier = strategy.Stochastic_core.Strategy.name;
          degraded = false;
          head;
          cost;
          normalized = Stochastic_core.Expected_cost.normalized model d ~cost;
        }
  | _, cost ->
      Error
        (Protocol.error_of_solver
           (Solver.Non_convergent
              {
                stage = strategy.Stochastic_core.Strategy.name;
                detail = Printf.sprintf "non-finite expected cost %g" cost;
              }))
  | exception e ->
      Error
        (Protocol.error_of_solver
           (Solver.Non_convergent
              {
                stage = strategy.Stochastic_core.Strategy.name;
                detail = Printexc.to_string e;
              }))

(* The one map from a cascade solution to the wire: a cold solve, or
   under shedding pressure the cheapest tier alone (mean doubling needs
   only the distribution's mean), branded [degraded: true]. *)
let solve_cascade t (s : Protocol.solve) model d ~tiers ~budget ~seed ~shed =
  match
    Solver.solve ~obs:t.obs ~clock:t.clock ~budget ~tiers
      ~exact:s.Protocol.exact ~seed model d
  with
  | Ok sol ->
      Ok
        {
          Protocol.dist_name = d.Dist.name;
          tier = Solver.tier_name sol.Solver.diagnostics.Solver.chosen;
          degraded = shed || Solver.degraded sol;
          head = head_prefix ~count:s.Protocol.count sol.Solver.head;
          cost = sol.Solver.cost;
          normalized = sol.Solver.normalized;
        }
  | Error e -> Error (Protocol.error_of_solver e)

(* Persist a freshly solved entry; a journal that cannot be written
   degrades to serving without persistence, never to dying. *)
let journal_put t key solved =
  match t.journal with
  | None -> ()
  | Some j -> (
      try
        Journal.append j { Journal.key; solved };
        M.incr t.m_j_appended;
        if Journal.should_compact j ~live:(Cache.size t.cache) then begin
          let live =
            List.map
              (fun (key, { solved; _ }) -> { Journal.key; solved })
              (Cache.bindings_lru t.cache)
          in
          Journal.compact j ~live;
          M.incr t.m_j_compactions
        end
      with Sys_error _ ->
        t.requests.journal_errors <- t.requests.journal_errors + 1;
        M.incr t.m_j_errors)

let handle_solve t ~id (s : Protocol.solve) =
  let hpc = match s.Protocol.model with Protocol.Hpc -> true | _ -> false in
  let result =
    match resolve_dist t ~hpc s.Protocol.dist with
    | Error e -> Error e
    | Ok (law, family, params) -> (
        match resolve_model s.Protocol.model with
        | Error e -> Error e
        | Ok model ->
            let budget = budget_of t s.Protocol.budget in
            let seed = Option.value s.Protocol.seed ~default:t.config.seed in
            let key =
              Quantize.key ~grid:t.config.grid ~family ~params ~model
                ~strategy:s.Protocol.strategy ~m:budget.Solver.bf_candidates
                ~n:budget.Solver.mc_samples ~disc_n:budget.Solver.dp_points
                ~max_evaluations:budget.Solver.max_evaluations ~seed
                ~count:s.Protocol.count ~exact:s.Protocol.exact
            in
            Trace.annotate t.obs [ ("key", Trace.Str key) ];
            match Cache.find t.cache key with
            | Some cached ->
                M.incr t.m_hits;
                Trace.annotate t.obs [ ("cached", Trace.Bool true) ];
                Ok (true, key, cached)
            | None -> (
                M.incr t.m_misses;
                let d = Lazy.force law in
                let tiers = Resolve.tiers_of_strategy s.Protocol.strategy in
                (* Shed answers are never cached or journalled: once
                   pressure drains, the same request gets (and
                   persists) the full-quality answer. *)
                let shed = t.shedding && Option.is_some tiers in
                Trace.annotate t.obs
                  (("cached", Trace.Bool false)
                  ::
                  (if shed then
                     (* Brand the shed decision with the live latency
                        picture that justified it. *)
                     [
                       ("shed", Trace.Bool true);
                       ("pressure", Trace.Int t.pressure);
                       ("p99_window", Trace.Num (window_p99 t));
                     ]
                   else []));
                let solved =
                  match tiers with
                  | Some _ when shed ->
                      (* Mean doubling is O(1); a shed answer must never
                         itself time out, so the deadline's cap on
                         [max_seconds] is lifted back to the configured
                         ceiling. *)
                      solve_cascade t s model d ~tiers:[ Solver.Mean_doubling ]
                        ~budget:
                          (Solver.override
                             ~max_seconds:t.config.budget.Solver.max_seconds
                             budget)
                        ~seed ~shed
                  | Some tiers -> solve_cascade t s model d ~tiers ~budget ~seed ~shed
                  | None -> (
                      match Resolve.strategy ~budget ~seed s.Protocol.strategy with
                      | Error msg -> Error (Protocol.usage_error msg)
                      | Ok strategy ->
                          solve_direct strategy model d ~count:s.Protocol.count)
                in
                match solved with
                | Error e -> Error e
                | Ok solved when shed ->
                    t.requests.shed <- t.requests.shed + 1;
                    M.incr t.m_shed;
                    Ok (false, key, entry solved)
                | Ok solved ->
                    M.incr t.m_cold;
                    let fresh = entry solved in
                    (match Cache.put t.cache key fresh with
                    | Cache.Evicted _ -> M.incr t.m_evictions
                    | Cache.Inserted | Cache.Replaced -> ());
                    M.set t.m_size (float_of_int (Cache.size t.cache));
                    journal_put t key solved;
                    Ok (false, key, fresh)))
  in
  match result with
  | Ok (cached, key, { solved; tail }) ->
      Trace.annotate t.obs
        [ ("ok", Trace.Bool true); ("tier", Trace.Str solved.Protocol.tier) ];
      (Protocol.solve_response ~id ~cached ~key ~tail, false)
  | Error e ->
      t.requests.errors <- t.requests.errors + 1;
      M.incr t.m_errors;
      Trace.annotate t.obs
        [ ("ok", Trace.Bool false); ("code", Trace.Int e.Protocol.code) ];
      (Protocol.error_response ~id e, false)

(* ---------------------------- other kinds -------------------------- *)

let stats_json t =
  let c = t.cache in
  J.Obj
    [
      ("uptime_seconds", J.Num (t.clock () -. t.start));
      ( "requests",
        J.Obj
          [
            ("solve", J.Num (float_of_int t.requests.solve));
            ("fit", J.Num (float_of_int t.requests.fit));
            ("stats", J.Num (float_of_int t.requests.stats));
            ("metrics", J.Num (float_of_int t.requests.metrics));
            ("shutdown", J.Num (float_of_int t.requests.shutdown));
            ("errors", J.Num (float_of_int t.requests.errors));
          ] );
      ( "cache",
        J.Obj
          [
            ("size", J.Num (float_of_int (Cache.size c)));
            ("capacity", J.Num (float_of_int (Cache.capacity c)));
            ("hits", J.Num (float_of_int (Cache.hits c)));
            ("misses", J.Num (float_of_int (Cache.misses c)));
            ("evictions", J.Num (float_of_int (Cache.evictions c)));
            ("hit_rate", J.Num (Cache.hit_rate c));
          ] );
      ("tenants", J.Num (float_of_int (Tenants.count t.tenants)));
      ( "journal",
        match t.journal with
        | None -> J.Obj [ ("enabled", J.Bool false) ]
        | Some j ->
            let s = Journal.stats j in
            J.Obj
              [
                ("enabled", J.Bool true);
                ("appended", J.Num (float_of_int s.Journal.appended));
                ("recovered", J.Num (float_of_int s.Journal.recovered_records));
                ( "skipped_corrupt",
                  J.Num (float_of_int s.Journal.skipped_corrupt) );
                ("compactions", J.Num (float_of_int s.Journal.compactions));
                ("errors", J.Num (float_of_int t.requests.journal_errors));
              ] );
      ( "overload",
        J.Obj
          [
            ( "state",
              J.Str
                (if t.shedding then "shedding"
                 else if t.pressure > 0 then "pressure"
                 else "ok") );
            ("shedding", J.Bool t.shedding);
            ("pressure", J.Num (float_of_int t.pressure));
            ("shed_responses", J.Num (float_of_int t.requests.shed));
            ( "deadline_exceeded",
              J.Num (float_of_int t.requests.deadline_exceeded) );
            ("p99_window_seconds", J.Num (window_p99 t));
          ] );
      ("metrics", M.to_json (M.snapshot t.registry));
    ]

let handle_fit t ~id ~tenant samples =
  match Tenants.fit t.tenants ~id:tenant samples with
  | Ok fit ->
      Trace.annotate t.obs
        [ ("ok", Trace.Bool true); ("tenant", Trace.Str tenant) ];
      (Protocol.fit_response ~id ~tenant fit, false)
  | Error msg ->
      t.requests.errors <- t.requests.errors + 1;
      M.incr t.m_errors;
      let e = { Protocol.code = 7; label = "invalid-parameter"; detail = msg } in
      Trace.annotate t.obs
        [ ("ok", Trace.Bool false); ("code", Trace.Int e.Protocol.code) ];
      (Protocol.error_response ~id e, false)

let kind_name = function
  | Protocol.Solve _ -> "solve"
  | Protocol.Fit _ -> "fit"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Shutdown -> "shutdown"

let count_request t req =
  let r = t.requests in
  match req with
  | Protocol.Solve _ ->
      r.solve <- r.solve + 1;
      M.incr t.m_req_solve
  | Protocol.Fit _ ->
      r.fit <- r.fit + 1;
      M.incr t.m_req_fit
  | Protocol.Stats ->
      r.stats <- r.stats + 1;
      M.incr t.m_req_stats
  | Protocol.Metrics ->
      r.metrics <- r.metrics + 1;
      M.incr t.m_req_metrics
  | Protocol.Shutdown ->
      r.shutdown <- r.shutdown + 1;
      M.incr t.m_req_shutdown

let dispatch t ~id req =
  match req with
  | Protocol.Solve s -> handle_solve t ~id s
  | Protocol.Fit { tenant; samples } -> handle_fit t ~id ~tenant samples
  | Protocol.Stats ->
      Trace.annotate t.obs [ ("ok", Trace.Bool true) ];
      (Protocol.stats_response ~id (stats_json t), false)
  | Protocol.Metrics ->
      Trace.annotate t.obs [ ("ok", Trace.Bool true) ];
      ( Protocol.metrics_response ~id
          ~exposition:(M.to_prometheus (M.snapshot t.registry)),
        false )
  | Protocol.Shutdown ->
      Trace.annotate t.obs [ ("ok", Trace.Bool true) ];
      (Protocol.shutdown_response ~id, true)

(* Track the pressure state machine after each request: requests that
   run close to the deadline build pressure, fast ones drain it.
   Pressure is capped so a long overload episode cannot dig a hole
   that takes arbitrarily many fast requests to climb out of. *)
let update_pressure t ~elapsed =
  match t.config.deadline with
  | None -> ()
  | Some d ->
      if elapsed > d then begin
        t.requests.deadline_exceeded <- t.requests.deadline_exceeded + 1;
        M.incr t.m_deadline_exceeded
      end;
      if elapsed > 0.8 *. d then begin
        t.pressure <- min (t.pressure + 1) (2 * t.config.shed_threshold);
        if t.pressure >= t.config.shed_threshold then t.shedding <- true
      end
      else begin
        t.pressure <- max 0 (t.pressure - 1);
        if t.pressure = 0 then t.shedding <- false
      end

(* Echo the client's correlation id into the request span, typed when
   the id is a scalar so trace tooling can filter on it directly. *)
let request_id_attrs = function
  | None -> []
  | Some id ->
      let v =
        match id with
        | J.Num n when Float.is_integer n && Float.abs n < 1e15 ->
            Trace.Int (int_of_float n)
        | J.Num n -> Trace.Num n
        | J.Str s -> Trace.Str s
        | other -> Trace.Str (J.to_string ~indent:false other)
      in
      [ ("request_id", v) ]

let handle_line t line =
  if String.length line > t.config.max_line_bytes then begin
    (* Refuse before parsing: an attacker (or a bug) streaming an
       unbounded line must not balloon the parser. No id is echoed —
       extracting one would mean parsing the oversized payload. *)
    t.requests.errors <- t.requests.errors + 1;
    M.incr t.m_errors;
    let e =
      Protocol.usage_error
        (Printf.sprintf "request line of %d bytes exceeds the %d-byte limit"
           (String.length line) t.config.max_line_bytes)
    in
    (Some (Protocol.error_response ~id:None e), false)
  end
  else if String.trim line = "" then (None, false)
  else begin
    let t0 = t.clock () in
    let response, stop =
      match Protocol.parse_request line with
      | Error (id, e) ->
          t.requests.errors <- t.requests.errors + 1;
          M.incr t.m_errors;
          Trace.with_span t.obs
            ~attrs:(("kind", Trace.Str "invalid") :: request_id_attrs id)
            "service.request"
            (fun () ->
              Trace.annotate t.obs
                [ ("ok", Trace.Bool false); ("code", Trace.Int e.Protocol.code) ];
              (Protocol.error_response ~id e, false))
      | Ok (id, req) ->
          count_request t req;
          Trace.with_span t.obs
            ~attrs:(("kind", Trace.Str (kind_name req)) :: request_id_attrs id)
            "service.request"
            (fun () -> dispatch t ~id req)
    in
    (* Clamp: a clock stepped backwards mid-request must not feed a
       negative duration into the histogram or the pressure logic. *)
    let elapsed = Float.max 0.0 (t.clock () -. t0) in
    M.observe t.m_latency elapsed;
    record_latency t elapsed;
    update_pressure t ~elapsed;
    (Some response, stop)
  end

let serve t ~recv ~send =
  let rec loop () =
    match recv () with
    | None -> ()
    | Some line ->
        let response, stop = handle_line t line in
        (match response with Some r -> send r | None -> ());
        if not stop then loop ()
  in
  loop ()
