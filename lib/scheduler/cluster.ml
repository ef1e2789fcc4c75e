(* Node pool with per-node identity: each node is up or down, and free
   or allocated. Identities matter because failures are per-node — when
   node [i] dies the engine must know which running job held it.
   Allocation picks the lowest-numbered free nodes so that placement
   (and therefore which job a failure kills) is deterministic. *)

type t = {
  nodes : int;
  up : bool array;
  allocated : bool array;
  mutable free_count : int; (* up && not allocated *)
  mutable busy_count : int; (* allocated *)
  mutable clock : float;
  busy : Numerics.Kahan.t;
}

let create ~nodes =
  if nodes <= 0 then invalid_arg "Cluster.create: nodes must be positive";
  {
    nodes;
    up = Array.make nodes true;
    allocated = Array.make nodes false;
    free_count = nodes;
    busy_count = 0;
    clock = 0.0;
    busy = Numerics.Kahan.create ();
  }

let nodes t = t.nodes
let free t = t.free_count
let advance t now =
  if now < t.clock -. 1e-9 then
    invalid_arg "Cluster.advance: time moved backwards";
  if t.busy_count < 0 || t.busy_count > t.nodes then
    failwith
      (Printf.sprintf "Cluster.advance: busy count %d outside [0, %d]"
         t.busy_count t.nodes);
  if now > t.clock then begin
    Numerics.Kahan.add t.busy (float_of_int t.busy_count *. (now -. t.clock));
    t.clock <- now
  end

let allocate t n =
  if n <= 0 then invalid_arg "Cluster.allocate: node count must be positive";
  if n > t.free_count then
    invalid_arg "Cluster.allocate: not enough free nodes";
  let ids = ref [] and taken = ref 0 in
  let i = ref 0 in
  while !taken < n do
    if t.up.(!i) && not t.allocated.(!i) then begin
      t.allocated.(!i) <- true;
      ids := !i :: !ids;
      incr taken
    end;
    incr i
  done;
  t.free_count <- t.free_count - n;
  t.busy_count <- t.busy_count + n;
  List.rev !ids

let release t ids =
  if ids = [] then invalid_arg "Cluster.release: empty node list";
  List.iter
    (fun i ->
      if i < 0 || i >= t.nodes then
        invalid_arg "Cluster.release: node out of range";
      if not t.allocated.(i) then
        invalid_arg
          (Printf.sprintf "Cluster.release: node %d is not allocated" i);
      t.allocated.(i) <- false;
      t.busy_count <- t.busy_count - 1;
      if t.up.(i) then t.free_count <- t.free_count + 1)
    ids

let mark_down t i =
  if i < 0 || i >= t.nodes then
    invalid_arg "Cluster.mark_down: node out of range";
  if not t.up.(i) then
    invalid_arg (Printf.sprintf "Cluster.mark_down: node %d is already down" i);
  if t.allocated.(i) then
    invalid_arg
      (Printf.sprintf
         "Cluster.mark_down: node %d still allocated (release its job first)" i);
  t.up.(i) <- false;
  t.free_count <- t.free_count - 1

let mark_up t i =
  if i < 0 || i >= t.nodes then invalid_arg "Cluster.mark_up: node out of range";
  if t.up.(i) then
    invalid_arg (Printf.sprintf "Cluster.mark_up: node %d is already up" i);
  t.up.(i) <- true;
  t.free_count <- t.free_count + 1

let clock t = t.clock
let busy_node_time t = Numerics.Kahan.sum t.busy

let utilization t =
  if t.clock <= 0.0 then 0.0
  else
    let u = busy_node_time t /. (float_of_int t.nodes *. t.clock) in
    Float.min 1.0 (Float.max 0.0 u)
