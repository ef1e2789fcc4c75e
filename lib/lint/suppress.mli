(** Inline suppression comments.

    A comment of the form [(* stochlint: allow FLOAT_EQ — reason *)]
    silences findings for that rule on the same source line and on the
    line immediately below it, so both styles work:

    {v
    if s >= 1.0 || s = 0.0 then go ()  (* stochlint: allow FLOAT_EQ — ... *)

    (* stochlint: allow FLOAT_EQ — rejection-sampling guard *)
    if s >= 1.0 || s = 0.0 then go ()
    v}

    The reason text is free-form but encouraged; the separator may be
    an em-dash, a hyphen, or a colon. The directive is only recognised
    when the comment opens on the same line as the marker, so a
    ["stochlint:"] inside a string literal is never a directive. *)

type t

val scan : string -> t
(** Scan raw source text for suppression directives. Tolerant of the
    comment marker appearing anywhere on the line. *)

val reason : t -> rule:Finding.rule -> line:int -> string option
(** The reason text (possibly empty) of the directive that suppresses
    a finding of [rule] on [line], if one does. *)

val active : t -> rule:Finding.rule -> line:int -> bool
(** Is a finding of [rule] on [line] suppressed? *)

val malformed : t -> (int * string) list
(** Suppression markers whose directive could not be parsed —
    reported so a typo cannot silently disable a suppression. *)
