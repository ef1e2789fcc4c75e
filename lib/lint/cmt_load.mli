(** Loading typedtrees out of the [.cmt] files dune's [-bin-annot]
    leaves under [_build]. *)

type export = {
  ex_path : string;  (** within the unit, e.g. ["observe"] or ["Sub.observe"] *)
  ex_file : string;  (** the [.mli] declaring it *)
  ex_line : int;
  ex_col : int;
}

type unit_info = {
  ui_name : string;  (** compilation unit, e.g. ["Stochobs__Metrics"] *)
  ui_source : string;
      (** build-root-relative source path, e.g. ["lib/obs/metrics.ml"] *)
  ui_cmt : string;  (** path the [.cmt] was read from *)
  ui_structure : Typedtree.structure;
  ui_exports : export list;
      (** the [val]s of the unit's [.mli], read from the [.cmi] beside
          the [.cmt]; empty for a unit without an [.mli] *)
}

val load_all : string list -> unit_info list * Finding.input_error list
(** Load every unit under the given roots, first-wins deduplicated on
    unit name and source path. *)
