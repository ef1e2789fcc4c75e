module Trace = Stochobs.Trace

type retry = { max_retries : int option; backoff : float }

let unlimited_retries = { max_retries = None; backoff = 0.0 }

let make_retry ?max_retries ?(backoff = 0.0) () =
  (match max_retries with
  | Some r when r < 0 ->
      invalid_arg "Engine.make_retry: max_retries must be nonnegative"
  | _ -> ());
  if not (Float.is_finite backoff) || backoff < 0.0 then
    invalid_arg "Engine.make_retry: backoff must be nonnegative and finite";
  { max_retries; backoff }

type config = {
  nodes : int;
  policy : Policy.t;
  faults : Faults.config option;
  retry : retry;
  obs : Trace.sink;
}

let make_config ?(obs = Trace.null) ?faults ?(retry = unlimited_retries)
    ~nodes ~policy () =
  { nodes; policy; faults; retry; obs }

type result = {
  jobs : Job.t array;
  nodes : int;
  policy : Policy.t;
  makespan : float;
  busy_node_time : float;
  events : int;
  node_failures : int;
  abandoned : int;
}

type event =
  | Arrival of Job.t
  | Finish of Job.t * int (* dispatch epoch; stale after an interrupt *)
  | Node_down of int
  | Node_up of int

(* A running job with its reservation kill time and the concrete nodes
   it occupies (failures are per-node, so identity matters). *)
type slot = { ends : float; job : Job.t; ids : int list }

(* The pending queue keeps FCFS order; jobs may leave from the middle
   (backfilling), so it is a plain list rebuilt on dispatch. Queue
   lengths are bounded by the job count, so the rebuild cost is
   negligible next to sequence construction. *)

let run (config : config) jobs =
  if config.nodes <= 0 then
    invalid_arg "Engine.run: cluster must have at least one node";
  Array.iter
    (fun j ->
      if Job.nodes j > config.nodes then
        invalid_arg
          (Printf.sprintf
             "Engine.run: job %d needs %d nodes but the cluster has %d"
             (Job.id j) (Job.nodes j) config.nodes))
    jobs;
  Trace.with_span config.obs
    ~attrs:
      [
        ("jobs", Trace.Int (Array.length jobs));
        ("nodes", Trace.Int config.nodes);
        ("policy", Trace.Str (Policy.name config.policy));
        ("faults", Trace.Bool (config.faults <> None));
      ]
    "scheduler.engine.run"
  @@ fun () ->
  let events = Event_queue.create () in
  Array.iter
    (fun j -> Event_queue.push events ~time:(Job.arrival j) (Arrival j))
    jobs;
  let cluster = Cluster.create ~nodes:config.nodes in
  let faults = Option.map (fun c -> Faults.create c ~nodes:config.nodes) config.faults in
  (* Seed the failure schedule: one pending outage per fallible node.
     Subsequent outages are drawn lazily as each node comes back up, so
     the trace extends exactly as far as the simulation needs it. *)
  (match faults with
  | None -> ()
  | Some f ->
      for node = 0 to config.nodes - 1 do
        let up = Faults.uptime f ~node in
        if Float.is_finite up then
          Event_queue.push events ~time:up (Node_down node)
      done);
  let pending = ref [] (* FCFS order *) in
  let running = ref [] (* running slots, unordered *) in
  let makespan = ref 0.0 in
  let processed = ref 0 in
  let remaining = ref (Array.length jobs) in
  let node_failures = ref 0 in
  let abandoned = ref 0 in
  let schedule now =
    match !pending with
    | [] -> ()
    | queue ->
        let arr = Array.of_list queue in
        let spec = Array.map (fun j -> (Job.nodes j, Job.request j)) arr in
        let running_res =
          List.map (fun s -> (s.ends, Job.nodes s.job)) !running
        in
        let starts =
          Policy.select config.policy ~now ~free:(Cluster.free cluster)
            ~running:running_res spec
        in
        if starts <> [] then begin
          let chosen = Array.make (Array.length arr) false in
          List.iter
            (fun idx ->
              let j = arr.(idx) in
              if now < Job.submitted j -. 1e-9 then
                failwith
                  (Printf.sprintf
                     "Engine.run: event-order corruption — job %d dispatched \
                      at %.9g before its submission at %.9g"
                     (Job.id j) now (Job.submitted j));
              chosen.(idx) <- true;
              let ids = Cluster.allocate cluster (Job.nodes j) in
              Job.start j ~now;
              let span, _completes = Job.attempt_span j in
              let reservation_end = now +. Job.request j in
              running := { ends = reservation_end; job = j; ids } :: !running;
              Event_queue.push events ~time:(now +. span)
                (Finish (j, Job.epoch j)))
            starts;
          pending :=
            List.filteri (fun i _ -> not chosen.(i)) (Array.to_list arr)
        end
  in
  let evict now slot =
    (* A node under [slot.job] died: salvage checkpointed progress,
       free its nodes, and apply the retry policy. *)
    Cluster.release cluster slot.ids;
    running := List.filter (fun s -> s.job != slot.job) !running;
    Job.interrupt slot.job ~now;
    match config.retry.max_retries with
    | Some cap when Job.failures slot.job > cap ->
        Job.abandon slot.job;
        incr abandoned;
        decr remaining
    | _ ->
        let at = now +. config.retry.backoff in
        Job.resubmit slot.job ~at;
        Event_queue.push events ~time:at (Arrival slot.job)
  in
  let rec loop () =
    if !remaining = 0 then ()
    else
      match Event_queue.pop events with
      | None -> ()
      | Some (now, ev) ->
          incr processed;
          Cluster.advance cluster now;
          (match (ev, faults) with
          | Arrival j, _ -> pending := !pending @ [ j ]
          | Finish (j, epoch), _ ->
              (* Stale when a failure already killed this attempt: the
                 job is no longer running, or has been redispatched
                 under a newer epoch. *)
              if Job.state j = Job.Running && Job.epoch j = epoch then begin
                let slot = List.find (fun s -> s.job == j) !running in
                Cluster.release cluster slot.ids;
                running := List.filter (fun s -> s.job != j) !running;
                let completed = Job.finish_attempt j ~now in
                if completed then begin
                  makespan := Float.max !makespan now;
                  decr remaining
                end
                else Event_queue.push events ~time:now (Arrival j)
              end
          (* Node_down/Node_up events are only ever scheduled from a
             [Some f] fault model (see the seeding loop above and the
             reschedules below), so the faults value is threaded
             through the match instead of being ripped out of the
             option with a partial [Option.get]. *)
          | Node_down node, Some f ->
              incr node_failures;
              Trace.instant config.obs
                ~attrs:[ ("node", Trace.Int node); ("t", Trace.Num now) ]
                "scheduler.engine.node_down";
              (match
                 List.find_opt (fun s -> List.mem node s.ids) !running
               with
              | Some slot -> evict now slot
              | None -> ());
              Cluster.mark_down cluster node;
              Event_queue.push events
                ~time:(now +. Faults.downtime f ~node)
                (Node_up node)
          | Node_up node, Some f ->
              Trace.instant config.obs
                ~attrs:[ ("node", Trace.Int node); ("t", Trace.Num now) ]
                "scheduler.engine.node_up";
              Cluster.mark_up cluster node;
              let up = Faults.uptime f ~node in
              if Float.is_finite up then
                Event_queue.push events ~time:(now +. up) (Node_down node)
          | (Node_down _ | Node_up _), None ->
              failwith
                "Engine.run: failure event without a fault model — \
                 event-queue corruption");
          schedule now;
          loop ()
  in
  loop ();
  if !remaining > 0 then
    failwith "Engine.run: simulation ended with jobs still in the system";
  Cluster.advance cluster (Float.max !makespan (Cluster.clock cluster));
  let busy = Cluster.busy_node_time cluster in
  if busy < 0.0 then
    failwith
      (Printf.sprintf
         "Engine.run: busy node-time integral went negative (%.9g)" busy);
  Trace.annotate config.obs
    [
      ("makespan", Trace.Num !makespan);
      ("events", Trace.Int !processed);
      ("node_failures", Trace.Int !node_failures);
      ("abandoned", Trace.Int !abandoned);
    ];
  {
    jobs;
    nodes = config.nodes;
    policy = config.policy;
    makespan = !makespan;
    busy_node_time = busy;
    events = !processed;
    node_failures = !node_failures;
    abandoned = !abandoned;
  }

let utilization r =
  if r.makespan <= 0.0 then 0.0
  else
    Float.min 1.0
      (Float.max 0.0
         (r.busy_node_time /. (float_of_int r.nodes *. r.makespan)))
