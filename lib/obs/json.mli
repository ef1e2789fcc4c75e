(** Minimal JSON support shared by the observability layer (trace
    JSONL, metric snapshots, bench artefacts) and the stochlint
    reports/baselines that originally hosted it.

    Deliberately dependency-free: the container only guarantees the
    OCaml toolchain, so the repo carries its own emitter and a small
    recursive-descent parser covering the subset it writes (objects,
    arrays, strings with backslash escapes, integers/floats, booleans,
    null). [to_string ~indent:false] emits no newlines, which is what
    makes the trace writer's one-object-per-line JSONL format safe. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialise; [indent] (default true) pretty-prints with 2-space
    indentation so baselines diff cleanly under version control. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] appends [i] in decimal, as [string_of_int] writes
    it, without its format interpretation: JSON numbers and cache keys
    print their integers through it. *)

val add : Buffer.t -> t -> unit
(** [add buf t] appends [to_string ~indent:false t]. *)

val add_num : Buffer.t -> float -> unit
(** [add_num buf v] appends [v] as {!to_string} writes [Num v]. *)

val add_str : Buffer.t -> string -> unit
(** [add_str buf s] appends [s] quoted and escaped, as {!to_string}
    writes [Str s]. *)

val of_string : string -> (t, string) result
(** Parse, or [Error message] naming the byte offset of the failure. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
