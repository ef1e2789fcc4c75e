(** A single stochlint finding: one rule violation at one source location. *)

type rule =
  | Float_eq  (** exact [=]/[<>]/[==] on a known-float operand *)
  | Partial_fn  (** [Option.get], [List.hd], ... outside test code *)
  | Exn_in_core  (** [failwith]/[raise] in the typed-error core layers *)
  | Unseeded_random  (** global [Random.*] instead of [Randomness.Rng] *)
  | Print_in_lib  (** [print_*]/[Printf.printf] in library code *)
  | Unlogged_sink
      (** bare [stdout]/[stderr]/[Format.std_formatter] in library
          code — route output through [Stochobs.Log]/[Writer] *)
  | Global_mut_state
      (** stochdomcheck: unannotated top-level mutable value in [lib/]
          (ref, mutable record, hashtable, buffer, array, ...) *)
  | Domain_unsafe_reach
      (** stochdomcheck: a declared parallel-candidate entry point
          transitively writes shared global mutable state *)
  | Rng_ambient
      (** stochdomcheck: RNG state reached ambiently (stdlib [Random]
          or a global [Randomness.Rng.t]) instead of being threaded as
          a parameter *)

type severity = Error | Warning

(** An input a pass could not read: a source that does not parse, or a
    [.cmt] that does not load. *)
type input_error = {
  err_file : string;
  err_pos : (int * int) option;  (** (line, col) of a parse error *)
  err_message : string;
}

type t = {
  rule : rule;
  file : string;  (** normalised, '/'-separated, no leading "./" *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler reports *)
  message : string;
}

val all_rules : rule list

val rule_id : rule -> string
(** Stable identifier, e.g. ["FLOAT_EQ"] — used in reports, inline
    suppressions and the baseline file. *)

val rule_of_id : string -> rule option
val severity : rule -> severity
val severity_to_string : severity -> string

val compare : t -> t -> int
(** Order by file, line, column, then rule id. *)

val to_human : t -> string
(** [file:line:col: severity RULE: message] — one line, no trailing
    newline. *)
