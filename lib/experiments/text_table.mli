(** Minimal aligned text-table rendering for experiment output. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays the table out with left-aligned first
    column, right-aligned remaining columns, and a separator line
    under the header.
    @raise Invalid_argument if any row's width differs from the
    header's. *)

val fmt_ratio : float -> string
(** Formats a normalized cost with two decimals (the paper's table
    precision); non-finite values render as ["-"]. *)
