type file_report = {
  fr_file : string;
  fr_findings : Finding.t list;
  fr_suppressed : int;
  fr_malformed : (int * string) list;
}

type outcome = {
  files : int;
  reports : file_report list;
  errors : Finding.input_error list;
}

let normalise path =
  let path = String.concat "/" (String.split_on_char '\\' path) in
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let skipped_dirs = [ "_build"; ".git"; "fixtures"; "_opam"; "node_modules" ]

let collect_files paths =
  let out = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry ->
          let child = Filename.concat path entry in
          if Sys.is_directory child then begin
            if not (List.mem entry skipped_dirs) then walk child
          end
          else if
            Filename.check_suffix entry ".ml"
            || Filename.check_suffix entry ".mli"
          then out := normalise child :: !out)
        (Sys.readdir path)
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then out := normalise path :: !out
  in
  List.iter walk paths;
  List.sort_uniq String.compare !out

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_error_of_exn file exn =
  let of_loc (loc : Location.t) message =
    let p = loc.loc_start in
    {
      Finding.err_file = file;
      err_pos = Some (p.pos_lnum, p.pos_cnum - p.pos_bol);
      err_message = message;
    }
  in
  match exn with
  | Syntaxerr.Error err ->
      Some (of_loc (Syntaxerr.location_of_error err) "syntax error")
  | Lexer.Error (_, loc) -> Some (of_loc loc "lexical error")
  | Sys_error msg ->
      Some { Finding.err_file = file; err_pos = Some (0, 0); err_message = msg }
  | _ -> None

(* Interfaces carry no expressions for the rules to inspect, but an
   unparseable .mli is exactly the kind of rot a lint pass should
   catch (dune only compiles interfaces someone references), and a
   malformed suppression comment in one deserves the same warning as
   in an .ml. *)
let lint_file ?context path =
  let file = normalise path in
  match
    let source = read_file path in
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf file;
    if Filename.check_suffix file ".mli" then begin
      ignore (Parse.interface lexbuf);
      (source, None)
    end
    else (source, Some (Parse.implementation lexbuf))
  with
  | exception exn -> (
      match parse_error_of_exn file exn with
      | Some pe -> Error pe
      | None -> raise exn)
  | source, structure ->
      let raw =
        match structure with
        | None -> []
        | Some structure ->
            let context =
              match context with
              | Some c -> c
              | None -> Rules.context_of_path file
            in
            Rules.check ~context ~file ~source structure
      in
      let sup = Suppress.scan source in
      let kept, silenced =
        List.partition
          (fun (f : Finding.t) ->
            not (Suppress.active sup ~rule:f.rule ~line:f.line))
          raw
      in
      Ok
        {
          fr_file = file;
          fr_findings = kept;
          fr_suppressed = List.length silenced;
          fr_malformed = Suppress.malformed sup;
        }

let missing_root path =
  { Finding.err_file = normalise path; err_pos = None; err_message = "no such file or directory" }

let run ?context paths =
  let roots, missing = List.partition Sys.file_exists paths in
  let files = collect_files roots in
  let reports, errors =
    List.partition_map
      (fun file ->
        Result.fold ~ok:Either.left ~error:Either.right
          (lint_file ?context file))
      files
  in
  { files = List.length files; reports; errors = List.map missing_root missing @ errors }

let findings outcome =
  List.sort Finding.compare
    (List.concat_map (fun r -> r.fr_findings) outcome.reports)
