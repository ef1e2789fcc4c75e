(** Bounded LRU cache for solved strategies.

    String-keyed, O(1) lookup and insertion (hash table over an
    intrusive doubly-linked recency list), with a hard capacity bound:
    inserting into a full cache evicts the least-recently-used entry.
    Hits, misses and evictions are counted locally so the daemon's
    [stats] response and the metrics registry can both report them.

    Only {e successful} solves belong in the cache; errors are cheap to
    recompute and must not shadow a later, healthier request. The
    server enforces that policy — this module is value-agnostic. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] holds at most [capacity] entries.
    @raise Invalid_argument if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** [find t k] returns the cached value and marks [k] most recently
    used; counts a hit or a miss. *)

type outcome = Inserted | Replaced | Evicted of string
(** What {!put} did: a fresh insertion, an in-place overwrite of an
    existing key, or an insertion that pushed the named
    least-recently-used key out. *)

val put : 'a t -> string -> 'a -> outcome
(** [put t k v] binds [k] to [v] as the most recently used entry,
    evicting the least recently used one when the cache is full and
    [k] is new. *)

val size : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val bindings_lru : 'a t -> (string * 'a) list
(** Bindings from least to most recently used. Replaying the list
    through {!put} in order rebuilds both the contents and the recency
    order — the journal compactor's snapshot format. *)
