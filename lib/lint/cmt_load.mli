(** Loading typedtrees out of the [.cmt] files dune's [-bin-annot]
    leaves under [_build]. *)

type unit_info = {
  ui_name : string;  (** compilation unit, e.g. ["Stochobs__Metrics"] *)
  ui_source : string;
      (** build-root-relative source path, e.g. ["lib/obs/metrics.ml"] *)
  ui_cmt : string;  (** path the [.cmt] was read from *)
  ui_structure : Typedtree.structure;
}

val load : string -> (unit_info, Finding.input_error) result
(** Read one [.cmt]. Fails on wrong magic, interface-only and partial
    implementations. *)

val load_all : string list -> unit_info list * Finding.input_error list
(** Load every unit under the given roots, first-wins deduplicated on
    unit name. *)
