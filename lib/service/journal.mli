(** Crash-safe persistence for the solved-strategy cache: a
    checksummed append-only journal with snapshot compaction.

    Each successful solve is appended as one self-describing record
    line

    {v SJ1 <crc32 hex> <payload bytes> <payload>\n v}

    where the payload is compact JSON carrying the cache key and the
    {!Protocol.solved} answer (floats emitted with [%.17g], so a
    recovered entry is bit-identical to the one written). Appends are
    flushed record-by-record: after a [SIGKILL] or a power cut the
    file holds every completed append plus at most one torn tail.

    {!recover} never fails on a damaged journal. A record is accepted
    only when its magic, declared payload length and CRC-32 all check
    out and the JSON decodes; anything else — torn tails, truncation
    anywhere in the file, bit flips, editor mangling — is {e skipped
    and counted}, because a persistence layer that refuses to start
    after an unclean death is worse than one that forgets a record.

    Compaction rewrites the journal as a snapshot of the live cache
    (LRU-first, so replay rebuilds recency), built in a side file and
    atomically renamed over the journal: a crash mid-compaction leaves
    the previous journal intact. It triggers once the records appended
    since the last snapshot exceed both a fixed threshold and twice
    the live-set size — i.e. only when the journal carries dead weight
    (superseded duplicates, evicted entries). *)

type entry = { key : string; solved : Protocol.solved }

type recovery = {
  entries : entry list;  (** Intact records, in append order. *)
  recovered : int;  (** [List.length entries]. *)
  skipped : int;  (** Corrupt or torn records skipped over. *)
  bytes : int;  (** Journal bytes scanned. *)
}

(* stochlint: allow UNUSED_EXPORT — test_chaos reads damaged journals read-only through it *)
val recover : string -> recovery
(** [recover path] scans a journal read-only. A missing or unreadable
    file is an empty recovery; a damaged one yields its intact
    records. Never raises. *)

type t
(** An open journal: recovered state plus an append channel. *)

val open_ : ?compact_threshold:int -> string -> t
(** [open_ path] runs {!recover} and opens [path] for appending
    (creating it when absent). [compact_threshold] (default 256) is
    the minimum number of appends since the last snapshot before
    {!should_compact} considers compacting.
    @raise Invalid_argument if [compact_threshold < 1].
    @raise Sys_error if [path] cannot be opened for writing. *)

val recovered : t -> entry list
(** The intact records found at {!open_} time, in append order —
    replay through the cache to warm it. *)

val append : t -> entry -> unit
(** Append one record and flush it to the OS.
    @raise Sys_error on I/O failure (disk full, closed channel); the
    server catches this and degrades to serving without persistence
    rather than dying. *)

val should_compact : t -> live:int -> bool
(** [should_compact t ~live] holds when the appends since the last
    snapshot reached the threshold {e and} at least [2 * live] — the
    journal is then mostly dead weight. *)

val compact : t -> live:entry list -> unit
(** [compact t ~live] atomically replaces the journal with a snapshot
    holding exactly [live] (pass the cache LRU-first so replay
    restores recency) and resets the compaction trigger.
    @raise Sys_error on I/O failure. *)

val flush : t -> unit
val close : t -> unit

type stats = {
  appended : int;  (** Records appended through this handle. *)
  recovered_records : int;  (** Intact records found at open. *)
  skipped_corrupt : int;  (** Damaged records skipped at open. *)
  compactions : int;  (** Snapshots taken through this handle. *)
}

val stats : t -> stats
(** Counters for the [stats] wire response and the metrics registry. *)

(** {1 Record codec} — exposed for the chaos harness and fuzz tests. *)

(* stochlint: allow UNUSED_EXPORT — test_chaos forges journal records with it *)
val encode_record : entry -> string
(** One record line, newline-terminated. *)

(* stochlint: allow UNUSED_EXPORT — test_chaos decodes forged journal records with it *)
val decode_line : string -> (entry, string) result
(** Decode one line (no trailing newline); [Error] says why the record
    was rejected. Never raises. *)

(* stochlint: allow UNUSED_EXPORT — test_chaos forges almost-valid records with it *)
val crc32_hex : string -> string
(** Lowercase 8-hex-digit IEEE CRC-32 — exposed so tests can forge
    almost-valid records. *)
