(* Intrusive doubly-linked recency list over a hash table: the list
   head is the most recently used entry, the tail the next eviction
   victim. All operations are O(1). *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards the MRU head *)
  mutable next : 'a node option;  (* towards the LRU tail *)
}

type 'a t = {
  table : (string, 'a node) Hashtbl.t;
  cap : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1, got %d" capacity);
  {
    table = Hashtbl.create (min capacity 4096);
    cap = capacity;
    head = None;
    tail = None;
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Detach [node] from the recency list (it must be linked). *)
let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

(* Push [node] (detached) to the MRU head. *)
let push_front t node =
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t k =
  match Hashtbl.find_opt t.table k with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value

type outcome = Inserted | Replaced | Evicted of string

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node;
      Replaced
  | None ->
      let evicted =
        if t.size >= t.cap then (
          match t.tail with
          | Some victim ->
              unlink t victim;
              Hashtbl.remove t.table victim.key;
              t.size <- t.size - 1;
              t.evictions <- t.evictions + 1;
              Some victim.key
          | None -> None (* unreachable: size >= cap >= 1 implies a tail *))
        else None
      in
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node;
      t.size <- t.size + 1;
      (match evicted with Some key -> Evicted key | None -> Inserted)

let size t = t.size
let capacity t = t.cap
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let bindings_lru t =
  (* Walk from the MRU head accumulating without the final reverse:
     the result comes out tail-first, i.e. least recently used first,
     so replaying it through [put] reconstructs the recency order. *)
  let rec walk acc = function
    | None -> acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head
