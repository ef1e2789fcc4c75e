(* stochdomcheck — cross-module effect & domain-safety analysis.

   Works on the typedtrees (.cmt files, from -bin-annot) of the whole
   build, so it sees resolved paths and types where stochlint sees one
   parse tree at a time.

   Usage:
     stochdomcheck [OPTIONS] [CMT_ROOT...]

   CMT_ROOT directories are walked recursively for .cmt files; the
   default is _build/default when it exists (the usual dune layout),
   else the current directory.

   Options:
     --json               machine-readable findings report on stdout
     --report FILE        write the effect report (globals, entry
                          effect signatures) as JSON to FILE
     --baseline FILE      filter findings through a grandfathering file
     --update-baseline    rewrite FILE so the current findings pass
     --entry PATH         declare a parallel-candidate entry point
                          (repeatable; replaces the built-in list)
     --source-root DIR    resolve source paths for inline suppressions
                          against DIR (default: first CMT_ROOT)
     --context CTX        force context classification for every file
                          (lib:NAME | bin | test | other)
     --quiet              findings only, no summary line

   Exit codes: 0 clean, 1 findings, 2 load/usage error (every .cmt that
   fails to load is named on stderr). *)

module L = Stochlint_lib

let usage =
  "usage: stochdomcheck [--json] [--report FILE] [--baseline FILE]\n\
  \                     [--update-baseline] [--entry PATH]...\n\
  \                     [--source-root DIR] [--context CTX] [--quiet]\n\
  \                     [CMT_ROOT...]"

let () =
  let opts =
    L.Report.parse ~tool:"stochdomcheck" ~usage
      ~value_flags:[ "--report"; "--entry"; "--source-root" ]
      ~out:(Stochobs.Writer.of_channel stdout)
      ~err:(Stochobs.Writer.of_channel stderr) Sys.argv
  in
  let roots =
    match opts.roots with
    | [] ->
        if Sys.file_exists "_build/default" then [ "_build/default" ]
        else [ "." ]
    | r -> r
  in
  (* Entries in declaration order, the order the effect report lists
     them and warns about them in; [opts.values] is last given first. *)
  let entries =
    match
      List.filter_map
        (fun (f, v) -> if f = "--entry" then Some v else None)
        (List.rev opts.values)
    with
    | [] -> L.Domcheck.default_entries
    | e -> e
  in
  let source_root =
    match (List.assoc_opt "--source-root" opts.values, roots) with
    | Some d, _ -> d
    | None, root :: _ -> root
    | None, [] -> "."
  in
  let outcome =
    L.Domcheck.analyze ?context:opts.context ~source_root ~entries roots
  in
  if outcome.units = 0 && outcome.load_errors = [] then begin
    opts.err
      (Printf.sprintf
         "stochdomcheck: no .cmt files under %s — build with -bin-annot \
          first (dune does by default)"
         (String.concat " " roots));
    exit 2
  end;
  List.iter
    (fun name ->
      opts.err
        (Printf.sprintf
           "stochdomcheck: warning: entry `%s` matched no analysed function"
           name))
    outcome.unresolved_entries;
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (Stochobs.Json.to_string (L.Domcheck.report_json outcome) ^ "\n")))
    (List.assoc_opt "--report" opts.values);
  let suppressed_globals =
    List.filter
      (fun (g : L.Domcheck.global) -> Option.is_some g.g_suppressed)
      outcome.globals
  in
  L.Report.finish opts
    {
      counts = [ ("units", outcome.units); ("functions", outcome.functions) ];
      findings = outcome.findings;
      suppressed = outcome.suppressed;
      errors_key = "load_errors";
      error_verb = "cannot load";
      errors = outcome.load_errors;
      wrote_note = "";
      summary =
        (fun ~findings ~baselined ->
          Printf.sprintf
            "%d units, %d functions, %d globals (%d suppressed inline), %s, \
             %d baselined"
            outcome.units outcome.functions
            (List.length outcome.globals)
            (List.length suppressed_globals)
            findings baselined);
    }
