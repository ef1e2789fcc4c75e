(* Loading typedtrees out of the .cmt files dune's -bin-annot leaves
   under _build. Unlike the parse-tree pass (Driver), which sees one
   file at a time, stochdomcheck needs every compilation unit of the
   library tree at once so cross-module references resolve. *)

type export = {
  ex_path : string;  (* within the unit, e.g. "observe" or "Sub.observe" *)
  ex_file : string;  (* the .mli declaring it *)
  ex_line : int;
  ex_col : int;
}

type unit_info = {
  ui_name : string;  (* compilation unit, e.g. "Stochobs__Metrics" *)
  ui_source : string;  (* build-root-relative source, e.g. "lib/obs/metrics.ml" *)
  ui_cmt : string;  (* path the .cmt was read from *)
  ui_structure : Typedtree.structure;
  ui_exports : export list;
}

(* Walk [root] for .cmt files. Dot-directories are NOT skipped: dune
   hides its object trees under lib/<x>/.<lib>.objs/byte. Interfaces
   (.cmti) and native duplicates never match — only .cmt. *)
let find_cmts root =
  let out = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true ->
        if Filename.basename path <> ".git" then
          Array.iter
            (fun entry -> walk (Filename.concat path entry))
            (Sys.readdir path)
    | false -> if Filename.check_suffix path ".cmt" then out := path :: !out
  in
  walk root;
  List.sort String.compare !out

(* The [val]s of the unit's .mli, read from the .cmi beside its .cmt.
   A unit without an .mli has a .cmi inferred from its .ml; its value
   locations point into the .ml, so it exports nothing here. *)
let exports cmt =
  let rec walk prefix sg =
    List.concat_map
      (function
        | Types.Sig_value (id, vd, _) ->
            let pos = vd.Types.val_loc.Location.loc_start in
            if Filename.check_suffix pos.pos_fname ".mli" then
              [
                {
                  ex_path = prefix ^ Ident.name id;
                  ex_file = Driver.normalise pos.pos_fname;
                  ex_line = pos.pos_lnum;
                  ex_col = pos.pos_cnum - pos.pos_bol;
                };
              ]
            else []
        | Types.Sig_module (id, _, { md_type = Types.Mty_signature sub; _ }, _, _)
          ->
            walk (prefix ^ Ident.name id ^ ".") sub
        | _ -> [])
      sg
  in
  match Cmi_format.read_cmi (Filename.remove_extension cmt ^ ".cmi") with
  | cmi -> walk "" cmi.cmi_sign
  | exception _ -> []

let load path =
  let error message =
    Error { Finding.err_file = path; err_pos = None; err_message = message }
  in
  match Cmt_format.read_cmt path with
  | exception exn -> error (Printexc.to_string exn)
  | cmt -> (
      match cmt.cmt_annots with
      | Cmt_format.Implementation structure ->
          let source =
            match cmt.cmt_sourcefile with
            | Some s -> Driver.normalise s
            | None -> path
          in
          Ok
            {
              ui_name = cmt.cmt_modname;
              ui_source = source;
              ui_cmt = path;
              ui_structure = structure;
              ui_exports = exports path;
            }
      | Cmt_format.Partial_implementation _ ->
          error "partial implementation (compilation failed?)"
      | _ -> error "not an implementation")

(* Load every unit under [roots], deduplicating on unit name and
   source (a byte and a native build can leave two identical cmts;
   bench/main.ml and perfbench/main.ml are both Dune__exe__Main). *)
let load_all roots =
  let units, errors =
    List.partition_map
      (fun cmt -> Result.fold ~ok:Either.left ~error:Either.right (load cmt))
      (List.concat_map find_cmts roots)
  in
  let seen = Hashtbl.create 64 in
  let first u =
    let key = (u.ui_name, u.ui_source) in
    let fresh = not (Hashtbl.mem seen key) in
    Hashtbl.replace seen key ();
    fresh
  in
  (List.filter first units, errors)
