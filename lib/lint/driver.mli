(** File discovery, parsing and rule orchestration. *)

type file_report = {
  fr_file : string;
  fr_findings : Finding.t list;  (** after inline suppression *)
  fr_suppressed : int;  (** findings silenced by inline directives *)
  fr_malformed : (int * string) list;
      (** suppression-marker comments that failed to parse *)
}

type outcome = {
  files : int;
  reports : file_report list;
  errors : Finding.input_error list;
}

val normalise : string -> string
(** Forward slashes, no leading ["./"]: the file names findings carry. *)

val read_file : string -> string

(* stochlint: allow UNUSED_EXPORT — test_lint checks the walker skips fixtures and build trees *)
val collect_files : string list -> string list
(** Expand each path: a directory is walked recursively for [.ml] and
    [.mli] files, skipping [_build], [.git] and [fixtures] subtrees (fixture
    sources violate rules on purpose); a file path is taken verbatim,
    so tests can point directly at fixtures. Sorted, de-duplicated.
    @raise Sys_error on a path that does not exist. *)

(* stochlint: allow UNUSED_EXPORT — test_lint runs each rule's fixture through it *)
val lint_file :
  ?context:Rules.context -> string -> (file_report, Finding.input_error) result
(** Parse with compiler-libs ([Parse.implementation]) and run the
    rules. [context] overrides path-based classification. *)

val run : ?context:Rules.context -> string list -> outcome
(** [collect_files] + [lint_file] over every discovered source. A path
    that does not exist is an input error naming it. *)

val findings : outcome -> Finding.t list
(** All findings across reports, sorted. *)
