(** Streaming reader for the JSONL traces {!Stochobs.Trace} emits.

    Inverts the writer's format — one JSON object per line, spans
    written at close so child lines precede their parents — back into
    span trees, with the same damage tolerance the cache journal has:
    a torn, truncated or otherwise malformed line is {e skipped and
    counted}, never an exception. Reading a trace that a crash (or a
    chaos test's bit flips) mangled yields every reconstructible span
    plus an honest [skipped] count, so analyses can report how much of
    the record they are standing on.

    Structural repairs on damaged input:
    - a span whose parent record is missing (the parent line was at
      the torn tail of the file — parents close after their children)
      is promoted to a root, keeping its subtree reachable;
    - a span caught in a parent cycle (corrupt parent pointer) is
      unreachable from any root and is counted as skipped instead of
      looping the reader. *)

type span = {
  id : int;  (** Writer-assigned, sequential from 1. *)
  parent : int;  (** [0] for roots. *)
  name : string;
  start : float;
  stop : float;  (** The record's [end] field; [stop >= start]. *)
  error : string option;  (** Present when the span closed on an exception. *)
  attrs : (string * Stochobs.Json.t) list;  (** In emission order. *)
  children : span list;  (** Ascending id — i.e. start order. *)
}

type event = {
  ev_name : string;
  ev_parent : int;  (** [0] when emitted outside any open span. *)
  at : float;
  ev_attrs : (string * Stochobs.Json.t) list;
}

type t = {
  roots : span list;  (** Ascending id; includes promoted orphans. *)
  events : event list;  (** In file order. *)
  lines : int;  (** Non-blank lines seen. *)
  skipped : int;  (** Lines (or unreachable spans) dropped as damaged. *)
}

val duration : span -> float
(** [stop -. start]. *)

val self_time : span -> float
(** {!duration} minus the children's durations, clamped at zero (a
    child that claims more time than its parent is clock damage, not
    negative work). *)

val spans : t -> span list
(** Every reconstructed span, preorder over {!roots} — each parent
    before its children, sibling subtrees in id order. *)

val span_count : t -> int

val of_string : string -> t
(** Read a trace from its text, one record a line: parse each line,
    validate the record shape (type, name, finite [start]/[end] with
    [end >= start], positive id, a parent distinct from the id
    itself), keep what checks out and count the rest as [skipped].
    Never raises. *)

val of_file : string -> (t, string) result
(** {!of_string} over a file's lines; [Error] only for an unreadable
    file — damaged {e contents} are a skip count, not an error. *)
