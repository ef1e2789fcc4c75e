(* stochlint — project-specific static analysis for the stochastic
   reservations repo.

   Usage:
     stochlint [OPTIONS] [PATH...]

   Paths default to lib bin test bench examples. Directories are
   walked recursively for .ml and .mli files (skipping _build and
   fixtures); explicit file paths are linted verbatim, fixtures
   included.

   Options:
     --json               machine-readable report on stdout
     --baseline FILE      filter findings through a grandfathering file
     --update-baseline    rewrite FILE so the current findings pass
     --context CTX        force context classification for every file
                          (lib:NAME | bin | test | other)
     --quiet              findings only, no summary line

   Exit codes: 0 clean, 1 findings, 2 parse/usage error. *)

module L = Stochlint_lib

let usage =
  "usage: stochlint [--json] [--baseline FILE] [--update-baseline]\n\
  \                 [--context lib:NAME|bin|test|other] [--quiet] [PATH...]"

let () =
  let opts =
    L.Report.parse ~tool:"stochlint" ~usage
      ~out:(Stochobs.Writer.of_channel stdout)
      ~err:(Stochobs.Writer.of_channel stderr) Sys.argv
  in
  let paths =
    match opts.roots with
    | [] -> [ "lib"; "bin"; "test"; "bench"; "examples" ]
    | p -> p
  in
  let outcome = L.Driver.run ?context:opts.context paths in
  List.iter
    (fun (r : L.Driver.file_report) ->
      List.iter
        (fun (line, msg) ->
          opts.err
            (Printf.sprintf
               "stochlint: %s:%d: warning: unparseable suppression comment \
                (%s)"
               r.fr_file line msg))
        r.fr_malformed)
    outcome.reports;
  let suppressed =
    List.fold_left (fun acc r -> acc + r.L.Driver.fr_suppressed) 0
      outcome.reports
  in
  L.Report.finish opts
    {
      counts = [ ("files", outcome.files) ];
      findings = L.Driver.findings outcome;
      suppressed;
      errors_key = "errors";
      error_verb = "cannot parse";
      errors = outcome.errors;
      wrote_note = Printf.sprintf " across %d files" outcome.files;
      summary =
        (fun ~findings ~baselined ->
          Printf.sprintf "%d files, %s, %d suppressed inline, %d baselined"
            outcome.files findings suppressed baselined);
    }
