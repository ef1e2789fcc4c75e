(* Per-unit typedtree scan: the fact-extraction half of stochdomcheck.

   One pass over a compilation unit's typedtree produces, in *raw*
   (alias-unresolved) form:

     - module aliases ([module X = P]) — both dune's generated
       wrapped-library alias units and local shorthands — so Domcheck
       can canonicalise every reference onto the defining unit;
     - type declarations that are records/variants with mutable
       fields, plus manifest chains for [type t = Other.t] aliases;
     - every top-level value binding: its resolved key
       ("Unit.Sub.name"), location, whether it is a function, the head
       constructor of its type, whether its initialiser syntactically
       allocates mutable state, and the effect facts of its body.

   Effect facts are collected flat over the whole binding body
   (closures included): direct mutations/reads of absolutely-named
   values, ambient IO and RNG touches, and call edges to other
   absolutely-named functions together with the absolutely-named
   values that appear in the arguments. Classification of which keys
   are *global mutable state* happens later, in Domcheck, once every
   unit's inventory is known.

   Compiler-libs compatibility: the scan deliberately avoids matching
   [Texp_function] and [Tpat_var] payloads (both changed shape between
   OCaml 5.1 and 5.2) — parameters are never collected; instead, a
   mutation whose target mentions no absolutely-named value is
   recorded as the ambient [writes_param] fact. *)

module SS = Set.Make (String)

type body = {
  mutable f_mentions : SS.t;  (* absolute keys referenced anywhere *)
  mutable f_mut_targets : SS.t;  (* absolute keys directly mutated *)
  mutable f_read_targets : SS.t;  (* absolute keys directly read as mutable *)
  mutable f_local_mut : bool;  (* mutated something not absolutely named *)
  mutable f_local_read : bool;
  mutable f_io : bool;
  mutable f_rng : bool;
  mutable f_rng_lines : int list;
  mutable f_calls : (string * SS.t) list;  (* callee key, arg keys *)
}

type binding = {
  b_key : string;
  b_file : string;
  b_line : int;
  b_col : int;
  b_is_fun : bool;
  b_type_head : string option;
  b_type : string;
  b_alloc : string option;  (* mutable-allocator kind, if syntactic *)
  b_body : body;
}

type type_fact = {
  t_key : string;
  t_mutable : bool;  (* declares a mutable field directly *)
  t_manifest : string option;  (* head of [type t = manifest], raw *)
}

type t = {
  u_name : string;
  u_source : string;
  u_bindings : binding list;  (* init pseudo-binding "<unit>.<init>" last *)
  u_aliases : (string * string) list;
  u_types : type_fact list;
}

let fresh_body () =
  {
    f_mentions = SS.empty;
    f_mut_targets = SS.empty;
    f_read_targets = SS.empty;
    f_local_mut = false;
    f_local_read = false;
    f_io = false;
    f_rng = false;
    f_rng_lines = [];
    f_calls = [];
  }

let absorb ~into b =
  into.f_mentions <- SS.union b.f_mentions into.f_mentions;
  into.f_mut_targets <- SS.union b.f_mut_targets into.f_mut_targets;
  into.f_read_targets <- SS.union b.f_read_targets into.f_read_targets;
  into.f_local_mut <- into.f_local_mut || b.f_local_mut;
  into.f_local_read <- into.f_local_read || b.f_local_read;
  into.f_io <- into.f_io || b.f_io;
  into.f_rng <- into.f_rng || b.f_rng;
  into.f_rng_lines <- b.f_rng_lines @ into.f_rng_lines;
  into.f_calls <- b.f_calls @ into.f_calls

(* ------------------------------------------------------------------ *)
(* Path flattening                                                     *)
(* ------------------------------------------------------------------ *)

(* [Path.t] to (head ident, trailing names). Wildcarded so the extra
   constructors later compilers grew ([Pextra_ty]) fall through. *)
let split_path p =
  let rec go p acc =
    match p with
    | Path.Pident id -> Some (id, acc)
    | Path.Pdot (q, s) -> go q (s :: acc)
    | _ -> None
  in
  go p []

(* Resolve a path to an absolute dotted key. Heads that are global
   (persistent units, predef) keep their name; local idents resolve
   through [env], which maps the unit's own top-level values, modules
   and module aliases (by [Ident.unique_name]) to absolute keys.
   Function-local variables are not in [env] and yield [None]. *)
let raw_of_path env p =
  match split_path p with
  | None -> None
  | Some (head, rest) ->
      let base =
        if Ident.global head then Some (Ident.name head)
        else Hashtbl.find_opt env (Ident.unique_name head)
      in
      Option.map
        (fun b -> match rest with [] -> b | _ -> String.concat "." (b :: rest))
        base

(* ------------------------------------------------------------------ *)
(* Types: head constructor, arrow detection                            *)
(* ------------------------------------------------------------------ *)

let rec head_constr_path ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some p
  | Types.Tpoly (t, _) -> head_constr_path t
  | _ -> None

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let type_to_string ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  | exception _ -> "<unprintable>"

(* ------------------------------------------------------------------ *)
(* Syntactic mutable allocators                                        *)
(* ------------------------------------------------------------------ *)

let allocators =
  [
    ("Stdlib.ref", "ref");
    ("Stdlib.Hashtbl.create", "hashtable");
    ("Stdlib.Buffer.create", "buffer");
    ("Stdlib.Array.make", "array");
    ("Stdlib.Array.init", "array");
    ("Stdlib.Array.create_float", "array");
    ("Stdlib.Array.make_matrix", "array");
    ("Stdlib.Bytes.create", "bytes");
    ("Stdlib.Bytes.make", "bytes");
    ("Stdlib.Queue.create", "queue");
    ("Stdlib.Stack.create", "stack");
    ("Stdlib.Atomic.make", "atomic");
  ]

(* ------------------------------------------------------------------ *)
(* Expression scan                                                     *)
(* ------------------------------------------------------------------ *)

(* Absolute keys mentioned anywhere inside [e] — used to attribute a
   mutation/read target or a call argument to the values it touches. *)
let abs_idents env e =
  let acc = ref SS.empty in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
              match raw_of_path env p with
              | Some key -> acc := SS.add key !acc
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub ex);
    }
  in
  it.expr it e;
  !acc

(* The absolute keys an argument expression hands to its callee: those
   of [abs_idents], except inside a nested application, which hands
   them to its own callee instead ([f (Array.to_list g)] gives [f] a
   fresh list, not [g]). *)
let handed_idents env e =
  let acc = ref SS.empty in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          match ex.Typedtree.exp_desc with
          | Typedtree.Texp_apply _ -> ()
          | Typedtree.Texp_ident (p, _, _) -> (
              match raw_of_path env p with
              | Some key -> acc := SS.add key !acc
              | None -> ())
          | _ -> Tast_iterator.default_iterator.expr sub ex);
    }
  in
  it.expr it e;
  !acc

let first_positional args =
  List.find_map
    (fun (label, arg) ->
      match (label, arg) with
      | Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a
      | _ -> None)
    args

let scan_expr env (facts : body) e =
  let line (ex : Typedtree.expression) = ex.exp_loc.loc_start.pos_lnum in
  let mention_path p ex =
    match raw_of_path env p with
    | None -> ()
    | Some key -> (
        facts.f_mentions <- SS.add key facts.f_mentions;
        match Effects.classify key with
        | Effects.Io -> facts.f_io <- true
        | Effects.Rng ->
            facts.f_rng <- true;
            facts.f_rng_lines <- line ex :: facts.f_rng_lines
        | _ -> ())
  in
  let target_of keys ~on_abs ~on_local =
    if SS.is_empty keys then on_local () else on_abs keys
  in
  let handle_call p args =
    match raw_of_path env p with
    | None -> ()
    | Some callee -> (
        match Effects.classify callee with
        | Effects.Mutator -> (
            match first_positional args with
            | None -> facts.f_local_mut <- true
            | Some a ->
                target_of (abs_idents env a)
                  ~on_abs:(fun keys ->
                    facts.f_mut_targets <- SS.union keys facts.f_mut_targets)
                  ~on_local:(fun () -> facts.f_local_mut <- true))
        | Effects.Reader -> (
            match first_positional args with
            | None -> facts.f_local_read <- true
            | Some a ->
                target_of (abs_idents env a)
                  ~on_abs:(fun keys ->
                    facts.f_read_targets <- SS.union keys facts.f_read_targets)
                  ~on_local:(fun () -> facts.f_local_read <- true))
        | Effects.Io -> facts.f_io <- true
        | Effects.Rng -> facts.f_rng <- true
        | Effects.Opaque ->
            let arg_keys =
              List.fold_left
                (fun acc (_, arg) ->
                  match arg with
                  | Some a -> SS.union (handed_idents env a) acc
                  | None -> acc)
                SS.empty args
            in
            facts.f_calls <- (callee, arg_keys) :: facts.f_calls)
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> mention_path p ex
          | Typedtree.Texp_apply
              ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
              handle_call p args
          | Typedtree.Texp_letmodule
              (Some id, _, _, { mod_desc = Typedtree.Tmod_ident (p, _); _ }, _)
            ->
              (* [let module S = Spot_savings in S.run]: [S.run] names
                 the target's value. *)
              Option.iter
                (Hashtbl.replace env (Ident.unique_name id))
                (raw_of_path env p)
          | Typedtree.Texp_setfield (tgt, _, _, _) ->
              target_of (abs_idents env tgt)
                ~on_abs:(fun keys ->
                  facts.f_mut_targets <- SS.union keys facts.f_mut_targets)
                ~on_local:(fun () -> facts.f_local_mut <- true)
          | _ -> ());
          Tast_iterator.default_iterator.expr sub ex);
    }
  in
  it.expr it e

(* ------------------------------------------------------------------ *)
(* Structure scan                                                      *)
(* ------------------------------------------------------------------ *)

let has_mutable_label lds =
  List.exists (fun ld -> ld.Types.ld_mutable = Asttypes.Mutable) lds

let record_literal_mutable (fields : (Types.label_description * _) array) =
  Array.exists (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable) fields

let scan (unit_info : Cmt_load.unit_info) =
  let env : (string, string) Hashtbl.t = Hashtbl.create 128 in
  let bindings = ref [] in
  let aliases = ref [] in
  let types = ref [] in
  let init_body = fresh_body () in
  let unit_name = unit_info.ui_name in
  let register id key = Hashtbl.replace env (Ident.unique_name id) key in
  let scan_vb prefix (vb : Typedtree.value_binding) =
    let facts = fresh_body () in
    scan_expr env facts vb.vb_expr;
    match Typedtree.pat_bound_idents vb.vb_pat with
    | [ id ] ->
        let key = prefix ^ "." ^ Ident.name id in
        let loc = vb.vb_pat.pat_loc.loc_start in
        let ty = vb.vb_expr.exp_type in
        let alloc =
          match vb.vb_expr.exp_desc with
          | Typedtree.Texp_apply
              ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) -> (
              match raw_of_path env p with
              | Some raw -> List.assoc_opt raw allocators
              | None -> None)
          | Typedtree.Texp_record { fields; _ } ->
              if record_literal_mutable fields then Some "mutable record"
              else None
          | Typedtree.Texp_array _ -> Some "array"
          | _ -> None
        in
        bindings :=
          {
            b_key = key;
            b_file = Driver.normalise loc.pos_fname;
            b_line = loc.pos_lnum;
            b_col = loc.pos_cnum - loc.pos_bol;
            b_is_fun = is_arrow ty;
            b_type_head =
              Option.bind (head_constr_path ty) (raw_of_path env);
            b_type = type_to_string ty;
            b_alloc = alloc;
            b_body = facts;
          }
          :: !bindings
    | _ ->
        (* [let () = ...], tuple patterns: module-initialisation code. *)
        absorb ~into:init_body facts
  in
  let rec scan_items prefix items =
    List.iter (scan_item prefix) items
  and scan_item prefix (si : Typedtree.structure_item) =
    match si.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        (* Register every bound name first so [let rec] bodies resolve
           their own (and their siblings') keys. *)
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun id -> register id (prefix ^ "." ^ Ident.name id))
              (Typedtree.pat_bound_idents vb.vb_pat))
          vbs;
        List.iter (scan_vb prefix) vbs
    | Typedtree.Tstr_module mb -> scan_mb prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (scan_mb prefix) mbs
    | Typedtree.Tstr_type (_, decls) -> List.iter (scan_tdecl prefix) decls
    | Typedtree.Tstr_eval (e, _) -> scan_eval e
    | _ -> ()
  and scan_eval e =
    let facts = fresh_body () in
    scan_expr env facts e;
    absorb ~into:init_body facts
  and scan_mb prefix (mb : Typedtree.module_binding) =
    let rec unwrap (m : Typedtree.module_expr) =
      match m.mod_desc with
      | Typedtree.Tmod_constraint (inner, _, _, _) -> unwrap inner
      | desc -> desc
    in
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let key = prefix ^ "." ^ Ident.name id in
        match unwrap mb.mb_expr with
        | Typedtree.Tmod_ident (p, _) -> (
            match raw_of_path env p with
            | Some target ->
                aliases := (key, target) :: !aliases;
                (* Local references through the alias short-circuit
                   straight to the target. *)
                register id target
            | None -> register id key)
        | Typedtree.Tmod_structure str ->
            register id key;
            scan_items key str.str_items
        | _ ->
            (* Functor bodies/applications are out of scope: nothing
               in this repo defines state inside one, and a may-miss
               here only costs inventory precision, not soundness of
               what *is* inventoried. *)
            register id key)
  and scan_tdecl prefix (decl : Typedtree.type_declaration) =
    let id = decl.typ_id in
    let key = prefix ^ "." ^ Ident.name id in
    register id key;
    let tt = decl.typ_type in
    let direct_mutable =
      match tt.Types.type_kind with
      | Types.Type_record (lds, _) -> has_mutable_label lds
      | Types.Type_variant (cds, _) ->
          List.exists
            (fun cd ->
              match cd.Types.cd_args with
              | Types.Cstr_record lds -> has_mutable_label lds
              | _ -> false)
            cds
      | _ -> false
    in
    let manifest =
      Option.bind tt.Types.type_manifest (fun m ->
          Option.bind (head_constr_path m) (raw_of_path env))
    in
    types :=
      { t_key = key; t_mutable = direct_mutable; t_manifest = manifest }
      :: !types
  in
  scan_items unit_name unit_info.ui_structure.str_items;
  let init_binding =
    {
      b_key = unit_name ^ ".<init>";
      b_file = unit_info.ui_source;
      b_line = 1;
      b_col = 0;
      b_is_fun = true;
      b_type_head = None;
      b_type = "unit";
      b_alloc = None;
      b_body = init_body;
    }
  in
  {
    u_name = unit_name;
    u_source = unit_info.ui_source;
    u_bindings = List.rev (init_binding :: !bindings);
    u_aliases = List.rev !aliases;
    u_types = List.rev !types;
  }
