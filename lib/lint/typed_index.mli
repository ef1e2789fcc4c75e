(** Per-unit typedtree scan: extracts raw (alias-unresolved) facts —
    module aliases, mutable type declarations, top-level bindings with
    body effect facts — for Domcheck to resolve and close over the
    cross-module call graph. *)

module SS : Set.S with type elt = string

type body = {
  mutable f_mentions : SS.t;  (** absolute keys referenced anywhere *)
  mutable f_mut_targets : SS.t;  (** absolute keys directly mutated *)
  mutable f_read_targets : SS.t;
      (** absolute keys directly read as mutable *)
  mutable f_local_mut : bool;
      (** mutated a value with no absolute name (param/local) *)
  mutable f_local_read : bool;
  mutable f_io : bool;
  mutable f_rng : bool;
  mutable f_rng_lines : int list;
  mutable f_calls : (string * SS.t) list;
      (** opaque callee key, absolute keys in its arguments *)
}

val absorb : into:body -> body -> unit
(** Add a body's facts to [into]'s: how module-initialisation code
    accumulates into a unit's [<init>]. *)

type binding = {
  b_key : string;  (** "Unit.Sub.name", raw *)
  b_file : string;
  b_line : int;
  b_col : int;
  b_is_fun : bool;
  b_type_head : string option;  (** raw head constructor of the type *)
  b_type : string;  (** printed type, for the report *)
  b_alloc : string option;
      (** mutable-allocator kind when the initialiser is syntactically
          [ref]/[Hashtbl.create]/mutable-record/... *)
  b_body : body;
}

type type_fact = {
  t_key : string;
  t_mutable : bool;
  t_manifest : string option;
}

type t = {
  u_name : string;
  u_source : string;
  u_bindings : binding list;
      (** includes a trailing ["Unit.<init>"] pseudo-binding carrying
          module-initialisation effects *)
  u_aliases : (string * string) list;
  u_types : type_fact list;
}

val scan : Cmt_load.unit_info -> t
