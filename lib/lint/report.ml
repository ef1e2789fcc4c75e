module Json = Stochobs.Json

type options = {
  tool : string;
  out : Stochobs.Writer.t;
  err : Stochobs.Writer.t;
  json : bool;
  quiet : bool;
  context : Rules.context option;
  baseline_file : string option;
  baseline : Baseline.t;
  update_baseline : bool;
  roots : string list;
  values : (string * string) list;
}

let fail o msg =
  o.err (o.tool ^ ": " ^ msg);
  exit 2

let parse ~tool ~usage ?(value_flags = []) ~out ~err argv =
  let usage msg =
    Option.iter (fun msg -> err (tool ^ ": " ^ msg)) msg;
    err usage;
    exit 2
  in
  let rec go o = function
    | [] -> { o with roots = List.rev o.roots }
    | "--json" :: rest -> go { o with json = true } rest
    | "--update-baseline" :: rest -> go { o with update_baseline = true } rest
    | "--quiet" :: rest -> go { o with quiet = true } rest
    | "--baseline" :: file :: rest ->
        go { o with baseline_file = Some file } rest
    | "--context" :: ctx :: rest -> (
        match Rules.context_of_string ctx with
        | Ok c -> go { o with context = Some c } rest
        | Error msg -> usage (Some msg))
    | flag :: v :: rest when List.mem flag value_flags ->
        go { o with values = (flag, v) :: o.values } rest
    | ("--help" | "-h") :: _ -> usage None
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
        usage (Some ("unknown option " ^ arg))
    | root :: rest -> go { o with roots = root :: o.roots } rest
  in
  let o =
    go
      {
        tool;
        out;
        err;
        json = false;
        quiet = false;
        context = None;
        baseline_file = None;
        baseline = Baseline.empty;
        update_baseline = false;
        roots = [];
        values = [];
      }
      (List.tl (Array.to_list argv))
  in
  match o.baseline_file with
  | None -> o
  (* The file is about to be rewritten; it may not exist yet. *)
  | Some file when o.update_baseline && not (Sys.file_exists file) -> o
  | Some file -> (
      match Baseline.load file with
      | Ok baseline -> { o with baseline }
      | Error msg -> fail o msg)

type run = {
  counts : (string * int) list;
  findings : Finding.t list;
  suppressed : int;
  errors_key : string;
  error_verb : string;
  errors : Finding.input_error list;
  wrote_note : string;
  summary : findings:string -> baselined:int -> string;
}

let num n = Json.Num (float_of_int n)

let finding_json (f : Finding.t) =
  Json.Obj
    [
      ("file", Json.Str f.file);
      ("line", num f.line);
      ("col", num f.col);
      ("rule", Json.Str (Finding.rule_id f.rule));
      ( "severity",
        Json.Str (Finding.severity_to_string (Finding.severity f.rule)) );
      ("message", Json.Str f.message);
    ]

let error_json (e : Finding.input_error) =
  Json.Obj
    ((("file", Json.Str e.err_file)
     :: (match e.err_pos with
        | Some (line, col) -> [ ("line", num line); ("col", num col) ]
        | None -> []))
    @ [ ("message", Json.Str e.err_message) ])

let error_line r (e : Finding.input_error) =
  match e.err_pos with
  | Some (line, col) ->
      Printf.sprintf "%s:%d:%d: %s: %s" e.err_file line col r.error_verb
        e.err_message
  | None -> Printf.sprintf "%s: %s: %s" e.err_file r.error_verb e.err_message

let update_baseline o r =
  match o.baseline_file with
  | None -> fail o "--update-baseline requires --baseline FILE"
  | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (Baseline.to_json_string (Baseline.of_findings r.findings)));
      o.out
        (Printf.sprintf "%s: wrote %s (%d findings grandfathered%s)" o.tool
           file (List.length r.findings) r.wrote_note)

let json_report r (applied : Baseline.application) =
  Json.Obj
    ((("version", Json.Num 1.0) :: List.map (fun (k, n) -> (k, num n)) r.counts)
    @ [
        ("findings", Json.Arr (List.map finding_json applied.kept));
        ("suppressed", num r.suppressed);
        ("baselined", num applied.baselined);
        (r.errors_key, Json.Arr (List.map error_json r.errors));
      ])

let human_report o r (applied : Baseline.application) =
  List.iter (fun f -> o.out (Finding.to_human f)) applied.kept;
  List.iter
    (fun (file, rule, found, allowed) ->
      o.out
        (Printf.sprintf
           "%s: %s count %d exceeds the baselined %d — the whole group is \
            shown above; fix the new site or refresh the baseline"
           file (Finding.rule_id rule) found allowed))
    applied.exceeded;
  List.iter (fun e -> o.err (o.tool ^ ": " ^ error_line r e)) r.errors;
  if not o.quiet then begin
    let kept = List.length applied.kept in
    let errors =
      List.length
        (List.filter
           (fun (f : Finding.t) -> Finding.severity f.rule = Finding.Error)
           applied.kept)
    in
    let findings =
      Printf.sprintf "%d findings (%d errors, %d warnings)" kept errors
        (kept - errors)
    in
    o.out (o.tool ^ ": " ^ r.summary ~findings ~baselined:applied.baselined)
  end

let finish o r =
  let kept =
    if o.update_baseline then begin
      update_baseline o r;
      []
    end
    else begin
      let applied = Baseline.apply o.baseline r.findings in
      if o.json then o.out (Json.to_string (json_report r applied))
      else human_report o r applied;
      applied.kept
    end
  in
  exit (if r.errors <> [] then 2 else if kept <> [] then 1 else 0)
