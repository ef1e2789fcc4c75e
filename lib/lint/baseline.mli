(** Grandfathered findings.

    The baseline records, per (file, rule), how many findings existed
    when the gate was turned on. A run passes as long as no (file,
    rule) pair exceeds its baselined count — so the gate is
    zero-NEW-findings from day one without requiring a big-bang fix,
    and deleting code can only shrink the baseline, never break it.
    Counts rather than line numbers keep the file stable under
    unrelated edits that shift code around. *)

type t

val empty : t

val load : string -> (t, string) result
(** Read a baseline JSON file ([{"version": 1, "entries": [{"file",
    "rule", "count"}...]}]). A missing file is an error — pass no
    [--baseline] flag instead if none is wanted. *)

val of_findings : Finding.t list -> t
(** Build the baseline that would make the given findings pass. *)

val to_json_string : t -> string

type application = {
  kept : Finding.t list;
      (** findings in groups that exceed their baselined count — every
          finding of the offending group is reported, since without
          line tracking the "new" one cannot be singled out *)
  baselined : int;  (** findings absorbed by the baseline *)
  exceeded : (string * Finding.rule * int * int) list;
      (** (file, rule, found, allowed) for each over-budget group *)
}

val apply : t -> Finding.t list -> application
