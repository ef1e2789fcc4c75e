(* stochdomcheck: cross-module effect and domain-safety analysis.

   Consumes the per-unit raw facts of Typed_index, canonicalises every
   reference through the module-alias graph (dune's wrapped-library
   alias units make "Stochobs.Metrics.default" and the binding in unit
   Stochobs__Metrics the same value), closes the mutable-type relation
   and the call-graph effect relation to a fixpoint, and emits:

     - GLOBAL_MUT_STATE: an unannotated top-level mutable value in lib/
     - DOMAIN_UNSAFE_REACH: a declared parallel-candidate entry point
       transitively writes shared global mutable state
     - RNG_AMBIENT: RNG state reached ambiently — a global
       [Randomness.Rng.t], or an entry point that transitively draws
       from stdlib [Random]
     - UNUSED_EXPORT: a val of a lib/ .mli that no other unit
       mentions, or that only test units mention

   plus the machine-readable effect report the multicore PR diffs
   against ("what must become per-domain"). Suppressions reuse the
   stochlint inline-comment machinery; baselines reuse Baseline. *)

module SS = Typed_index.SS
module Json = Stochobs.Json

(* ------------------------------------------------------------------ *)
(* Canonicalisation                                                    *)
(* ------------------------------------------------------------------ *)

(* "Stochobs__Metrics.default" -> "Stochobs.Metrics.default" for
   humans; dune mangles wrapped-library submodules with "__". *)
let pretty key =
  let split_dunders seg =
    let n = String.length seg in
    let rec go start i acc =
      if i + 1 >= n then List.rev (String.sub seg start (n - start) :: acc)
      else if seg.[i] = '_' && seg.[i + 1] = '_' && i > start then
        go (i + 2) (i + 2) (String.sub seg start (i - start) :: acc)
      else go start (i + 1) acc
    in
    go 0 0 []
  in
  String.concat "."
    (List.concat_map split_dunders (String.split_on_char '.' key))

let take n = List.filteri (fun i _ -> i < n)

(* Expand module-alias prefixes (longest first) until the key names
   its defining unit. Fuel-bounded against alias cycles. *)
let resolve aliases key =
  let rec go key fuel =
    if fuel = 0 then key
    else
      let segs = String.split_on_char '.' key in
      let n = List.length segs in
      let rec try_prefix k =
        if k = 0 then None
        else
          match Hashtbl.find_opt aliases (String.concat "." (take k segs)) with
          | Some target ->
              Some
                (String.concat "."
                   (target :: List.filteri (fun i _ -> i >= k) segs))
          | None -> try_prefix (k - 1)
      in
      match try_prefix n with
      | Some key' when key' <> key -> go key' (fuel - 1)
      | _ -> key
  in
  go key 32

(* ------------------------------------------------------------------ *)
(* Result types                                                        *)
(* ------------------------------------------------------------------ *)

type global = {
  g_key : string;
  g_pretty : string;
  g_file : string;
  g_line : int;
  g_col : int;
  g_kind : string;
  g_type : string;
  g_rng : bool;  (* is RNG state (Randomness.Rng.t) *)
  g_quiet : bool;  (* array/bytes with no observed writer: report-only *)
  mutable g_suppressed : string option;  (* inline-allow reason *)
  mutable g_writers : string list;  (* pretty fn keys, sorted *)
  mutable g_readers : string list;
  mutable g_reached_by : string list;  (* pretty entry keys *)
}

type fn = {
  fn_key : string;
  fn_file : string;
  fn_line : int;
  fn_col : int;
  fn_body : Typed_index.body;  (* canonicalised keys *)
  mutable fn_eff : Effects.t;
  mutable fn_writes : SS.t;
  mutable fn_reads : SS.t;
  mutable fn_via : (string * string) list;  (* global -> next hop ("" direct) *)
}

type entry_report = {
  e_key : string;
  e_pretty : string;
  e_file : string;
  e_line : int;
  e_eff : Effects.t;
  e_writes : string list;  (* pretty global keys, all (incl. suppressed) *)
  e_reads : string list;
  e_unsafe : string list;  (* pretty unsuppressed written globals *)
  e_rng_ambient : bool;
}

type outcome = {
  findings : Finding.t list;
  suppressed : int;
  globals : global list;
  entries : entry_report list;
  functions : int;
  units : int;
  load_errors : Finding.input_error list;
  unresolved_entries : string list;
}

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let kind_of_head head =
  match head with
  | "Stdlib.ref" | "ref" -> Some "ref"
  | "array" -> Some "array"
  | "bytes" -> Some "bytes"
  | "Stdlib.Hashtbl.t" -> Some "hashtable"
  | "Stdlib.Buffer.t" -> Some "buffer"
  | "Stdlib.Queue.t" -> Some "queue"
  | "Stdlib.Stack.t" -> Some "stack"
  | "Stdlib.Atomic.t" -> Some "atomic"
  | "Stdlib.Weak.t" | "Stdlib.Ephemeron.K1.t" -> Some "weak table"
  | _ -> None

let body_map_keys f (b : Typed_index.body) : Typed_index.body =
  {
    b with
    f_mentions = SS.map f b.f_mentions;
    f_mut_targets = SS.map f b.f_mut_targets;
    f_read_targets = SS.map f b.f_read_targets;
    f_calls = List.map (fun (c, args) -> (f c, SS.map f args)) b.f_calls;
  }

let suppressions_for cache ~source_root file =
  match Hashtbl.find_opt cache file with
  | Some s -> s
  | None ->
      let path =
        if Filename.is_relative file then Filename.concat source_root file
        else file
      in
      let s =
        match Driver.read_file path with
        | source -> Some (Suppress.scan source)
        | exception Sys_error _ -> None
      in
      Hashtbl.replace cache file s;
      s

let default_entries =
  [
    "Platform.Simulator.run";
    "Stochastic_core.Brute_force.search";
    "Scheduler.Engine.run";
    "Scheduler.Spot_sim.run";
    "Robust.Solver.solve";
    "Robust.Solver.solve_spot";
    "Experiments.Robustness.run";
  ]

let analyze ?context ~source_root ~entries cmt_paths =
  let units, load_errors = Cmt_load.load_all cmt_paths in
  let facts = List.map Typed_index.scan units in
  (* Alias graph. *)
  let aliases = Hashtbl.create 256 in
  List.iter
    (fun (u : Typed_index.t) ->
      List.iter (fun (k, v) -> Hashtbl.replace aliases k v) u.u_aliases)
    facts;
  let resolve = resolve aliases in
  (* Mutable-type closure: builtin heads + declared mutable records +
     manifest chains onto either. *)
  let mutable_types = Hashtbl.create 128 in
  List.iter
    (fun h -> Hashtbl.replace mutable_types h ())
    Effects.mutable_type_heads;
  let tfacts =
    List.concat_map
      (fun (u : Typed_index.t) ->
        List.map
          (fun (t : Typed_index.type_fact) ->
            ( resolve t.t_key,
              t.t_mutable,
              Option.map resolve t.t_manifest ))
          u.u_types)
      facts
  in
  List.iter
    (fun (key, m, _) -> if m then Hashtbl.replace mutable_types key ())
    tfacts;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (key, _, manifest) ->
        if not (Hashtbl.mem mutable_types key) then
          match manifest with
          | Some m when Hashtbl.mem mutable_types m ->
              Hashtbl.replace mutable_types key ();
              changed := true
          | _ -> ())
      tfacts
  done;
  let rng_type key =
    List.mem key Effects.rng_type_heads
    || List.mem (pretty key) Effects.rng_type_heads
  in
  (* Bindings, canonicalised. *)
  let all_bindings =
    List.concat_map
      (fun (u : Typed_index.t) ->
        List.map
          (fun (b : Typed_index.binding) ->
            ( u,
              {
                b with
                Typed_index.b_key = resolve b.Typed_index.b_key;
                b_type_head = Option.map resolve b.b_type_head;
                b_body = body_map_keys resolve b.b_body;
              } ))
          u.u_bindings)
      facts
  in
  (* Global inventory. *)
  let globals : (string, global) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((_ : Typed_index.t), (b : Typed_index.binding)) ->
      if not b.b_is_fun then begin
        let head = b.b_type_head in
        let head_kind = Option.bind head kind_of_head in
        let declared_mut =
          match head with
          | Some h -> Hashtbl.mem mutable_types h && head_kind = None
          | None -> false
        in
        let is_rng = match head with Some h -> rng_type h | None -> false in
        let kind =
          match (b.b_alloc, head_kind, declared_mut, head) with
          | Some k, _, _, _ -> Some k
          | None, Some k, _, _ -> Some k
          | None, None, true, Some h ->
              Some (Printf.sprintf "mutable record (%s)" (pretty h))
          | _ ->
              (* [Rng.t] is abstract, so neither the head table nor the
                 declared-mutable closure sees it — but a global
                 generator is exactly the ambient state RNG_AMBIENT
                 exists for. *)
              if is_rng then Some "rng state" else None
        in
        match kind with
        | None -> ()
        | Some kind ->
            Hashtbl.replace globals b.b_key
              {
                g_key = b.b_key;
                g_pretty = pretty b.b_key;
                g_file = b.b_file;
                g_line = b.b_line;
                g_col = b.b_col;
                g_kind = kind;
                g_type = b.b_type;
                g_rng = is_rng;
                g_quiet = false;  (* refined after the fixpoint *)
                g_suppressed = None;
                g_writers = [];
                g_readers = [];
                g_reached_by = [];
              }
      end)
    all_bindings;
  let is_global k = Hashtbl.mem globals k in
  let globals_of set = SS.filter is_global set in
  (* Function table; non-function initialisers fold into the unit's
     <init> pseudo-function. *)
  let fns : (string, fn) Hashtbl.t = Hashtbl.create 512 in
  List.iter
    (fun ((_ : Typed_index.t), (b : Typed_index.binding)) ->
      if b.b_is_fun then
        Hashtbl.replace fns b.b_key
          {
            fn_key = b.b_key;
            fn_file = b.b_file;
            fn_line = b.b_line;
            fn_col = b.b_col;
            fn_body = b.b_body;
            fn_eff = Effects.pure;
            fn_writes = SS.empty;
            fn_reads = SS.empty;
            fn_via = [];
          })
    all_bindings;
  List.iter
    (fun ((u : Typed_index.t), (b : Typed_index.binding)) ->
      if not b.b_is_fun then begin
        (* Initialiser effects of a top-level value run at module load:
           account them to Unit.<init>. *)
        let init_key = resolve (u.u_name ^ ".<init>") in
        match Hashtbl.find_opt fns init_key with
        | Some init ->
            let ib = init.fn_body and bb = b.b_body in
            ib.f_mentions <- SS.union ib.f_mentions bb.f_mentions;
            ib.f_mut_targets <- SS.union ib.f_mut_targets bb.f_mut_targets;
            ib.f_read_targets <- SS.union ib.f_read_targets bb.f_read_targets;
            ib.f_local_mut <- ib.f_local_mut || bb.f_local_mut;
            ib.f_local_read <- ib.f_local_read || bb.f_local_read;
            ib.f_io <- ib.f_io || bb.f_io;
            ib.f_rng <- ib.f_rng || bb.f_rng;
            ib.f_rng_lines <- bb.f_rng_lines @ ib.f_rng_lines;
            ib.f_calls <- bb.f_calls @ ib.f_calls
        | None -> ()
      end)
    all_bindings;
  (* Direct writer/reader attribution (for the report): the function
     that touches the global, or the sharing point that passes it to a
     param-mutating callee. *)
  let writers : (string, SS.t) Hashtbl.t = Hashtbl.create 64 in
  let readers : (string, SS.t) Hashtbl.t = Hashtbl.create 64 in
  let attribute tbl g f =
    let known = Option.value ~default:SS.empty (Hashtbl.find_opt tbl g) in
    Hashtbl.replace tbl g (SS.add f known)
  in
  (* Base effects. *)
  Hashtbl.iter
    (fun _ f ->
      let b = f.fn_body in
      let w = globals_of b.f_mut_targets in
      let r =
        SS.union (globals_of b.f_read_targets) (globals_of b.f_mentions)
      in
      f.fn_writes <- w;
      f.fn_reads <- r;
      SS.iter (fun g -> attribute writers g f.fn_key) w;
      SS.iter (fun g -> attribute readers g f.fn_key) r;
      f.fn_via <- SS.fold (fun g acc -> (g, "") :: acc) w [];
      f.fn_eff <-
        {
          Effects.reads_global = not (SS.is_empty r);
          writes_global = not (SS.is_empty w);
          reads_param = b.f_local_read;
          writes_param = b.f_local_mut;
          io = b.f_io;
          rng = b.f_rng;
        })
    fns;
  (* Fixpoint over the call graph. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ f ->
        List.iter
          (fun (callee, args) ->
            match Hashtbl.find_opt fns callee with
            | None -> ()
            | Some g ->
                let arg_globals = globals_of args in
                (* The same step for writes and for reads: [f] inherits
                   the callee's globals, plus the arguments it passes
                   when the callee touches its parameters; [f] is the
                   sharing point for those arguments. *)
                let absorb tbl ~param ~mine ~theirs =
                  let fresh =
                    SS.diff
                      (SS.union theirs
                         (if param then arg_globals else SS.empty))
                      mine
                  in
                  SS.iter
                    (fun gk ->
                      if
                        param
                        && SS.mem gk arg_globals
                        && not (SS.mem gk theirs)
                      then attribute tbl gk f.fn_key)
                    fresh;
                  if not (SS.is_empty fresh) then changed := true;
                  fresh
                in
                let fresh_w =
                  absorb writers ~param:g.fn_eff.Effects.writes_param
                    ~mine:f.fn_writes ~theirs:g.fn_writes
                in
                let fresh_r =
                  absorb readers ~param:g.fn_eff.Effects.reads_param
                    ~mine:f.fn_reads ~theirs:g.fn_reads
                in
                SS.iter
                  (fun gk -> f.fn_via <- (gk, callee) :: f.fn_via)
                  fresh_w;
                f.fn_writes <- SS.union f.fn_writes fresh_w;
                f.fn_reads <- SS.union f.fn_reads fresh_r;
                let eff' =
                  {
                    (Effects.join f.fn_eff g.fn_eff) with
                    Effects.reads_global = not (SS.is_empty f.fn_reads);
                    writes_global = not (SS.is_empty f.fn_writes);
                  }
                in
                if not (Effects.equal eff' f.fn_eff) then begin
                  f.fn_eff <- eff';
                  changed := true
                end)
          f.fn_body.f_calls)
      fns
  done;
  (* Fill report attribution on globals; arrays/bytes nobody ever
     writes are lookup tables in practice — keep them in the report
     but do not lint them. *)
  Hashtbl.iter
    (fun key g ->
      let names tbl =
        match Hashtbl.find_opt tbl key with
        | Some r -> List.sort String.compare (List.map pretty (SS.elements r))
        | None -> []
      in
      g.g_writers <- names writers;
      g.g_readers <- names readers)
    globals;
  let globals_list =
    Hashtbl.fold
      (fun _ g acc ->
        let quiet =
          (g.g_kind = "array" || g.g_kind = "bytes") && g.g_writers = []
        in
        { g with g_quiet = quiet } :: acc)
      globals []
    |> List.sort (fun a b ->
           let c = String.compare a.g_file b.g_file in
           if c <> 0 then c else Int.compare a.g_line b.g_line)
  in
  let globals = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace globals g.g_key g) globals_list;
  (* Inline suppressions. *)
  let cache = Hashtbl.create 32 in
  let suppressed_count = ref 0 in
  List.iter
    (fun g ->
      let rule =
        if g.g_rng then Finding.Rng_ambient else Finding.Global_mut_state
      in
      let sup = suppressions_for cache ~source_root g.g_file in
      match Option.bind sup (Suppress.reason ~rule ~line:g.g_line) with
      | Some reason ->
          g.g_suppressed <-
            Some (if reason = "" then "(no reason given)" else reason);
          incr suppressed_count
      | None -> ())
    globals_list;
  let context_of = Option.value context ~default:Rules.context_of_path in
  let in_lib file =
    match context_of file with Rules.Lib _ -> true | _ -> false
  in
  (* Entry points. *)
  let unresolved = ref [] in
  let entry_fns =
    List.filter_map
      (fun name ->
        let key = resolve name in
        match Hashtbl.find_opt fns key with
        | Some f -> Some (name, f)
        | None -> (
            match Hashtbl.find_opt fns name with
            | Some f -> Some (name, f)
            | None ->
                unresolved := name :: !unresolved;
                None))
      entries
  in
  (* A global an entry point may not write: neither suppressed nor a
     report-only lookup table. *)
  let unsafe_target g =
    match Hashtbl.find_opt globals g with
    | Some gl -> Option.is_none gl.g_suppressed && not gl.g_quiet
    | None -> true
  in
  let chain f g =
    (* entry -> ... -> direct writer, through the via links. *)
    let rec go key acc fuel =
      if fuel = 0 then List.rev acc
      else
        match Hashtbl.find_opt fns key with
        | None -> List.rev acc
        | Some fn -> (
            match List.assoc_opt g fn.fn_via with
            | Some "" | None -> List.rev acc
            | Some next -> go next (pretty next :: acc) (fuel - 1))
    in
    go f.fn_key [] 6
  in
  let findings = ref [] in
  let suppress_or_add rule file line col message =
    let sup = suppressions_for cache ~source_root file in
    match sup with
    | Some sup when Suppress.active sup ~rule ~line -> incr suppressed_count
    | _ ->
        findings :=
          { Finding.rule; file; line; col; message } :: !findings
  in
  (* GLOBAL_MUT_STATE / RNG_AMBIENT on globals in lib context. *)
  List.iter
    (fun g ->
      if in_lib g.g_file && not g.g_quiet && g.g_suppressed = None then
        if g.g_rng then
          suppress_or_add Finding.Rng_ambient g.g_file g.g_line g.g_col
            (Printf.sprintf
               "global RNG state `%s` (%s) is ambient; thread an explicit \
                `Randomness.Rng.t` (split per domain) instead"
               g.g_pretty g.g_type)
        else
          suppress_or_add Finding.Global_mut_state g.g_file g.g_line g.g_col
            (Printf.sprintf
               "top-level mutable value `%s` (%s) is shared process state; \
                make it per-domain, pass it explicitly, or annotate the \
                intent with `(* stochlint: allow GLOBAL_MUT_STATE — reason \
                *)`"
               g.g_pretty g.g_kind))
    globals_list;
  (* UNUSED_EXPORT: a val of a lib/ .mli that no other unit mentions
     (always a finding), or that only test units mention (a finding
     unless an inline allow marks it as a test seam). *)
  let mentioned_by = Hashtbl.create 4096 in
  List.iter
    (fun ((u : Typed_index.t), (b : Typed_index.binding)) ->
      SS.iter
        (fun key -> Hashtbl.add mentioned_by key u.u_source)
        b.b_body.f_mentions)
    all_bindings;
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      List.iter
        (fun (x : Cmt_load.export) ->
          let key = resolve (u.ui_name ^ "." ^ x.ex_path) in
          let users =
            List.filter
              (fun src -> src <> u.ui_source)
              (Hashtbl.find_all mentioned_by key)
          in
          let rule = Finding.Unused_export and file = x.ex_file in
          if
            in_lib file
            && List.for_all (fun src -> context_of src = Rules.Test) users
          then
            if users = [] then
              findings :=
                {
                  Finding.rule;
                  file;
                  line = x.ex_line;
                  col = x.ex_col;
                  message =
                    Printf.sprintf
                      "`%s` is exported but no other unit mentions it; \
                       delete it, or drop it from the .mli if its own \
                       module uses it"
                      (pretty key);
                }
                :: !findings
            else
              suppress_or_add rule file x.ex_line x.ex_col
                (Printf.sprintf
                   "`%s` is exported but only tests mention it; delete it \
                    with its tests, move it into test/, or mark the seam \
                    with `(* stochlint: allow UNUSED_EXPORT — the test that needs it *)`"
                   (pretty key)))
        u.ui_exports)
    units;
  (* Entry-point rules. *)
  let entry_reports =
    List.map
      (fun (name, f) ->
        let epretty = pretty f.fn_key in
        let unsafe = SS.elements (SS.filter unsafe_target f.fn_writes) in
        let rng_globals =
          SS.filter
            (fun g ->
              match Hashtbl.find_opt globals g with
              | Some gl -> gl.g_rng && Option.is_none gl.g_suppressed
              | None -> false)
            (SS.union f.fn_reads f.fn_writes)
        in
        let rng_ambient =
          f.fn_eff.Effects.rng || not (SS.is_empty rng_globals)
        in
        if unsafe <> [] then begin
          let witness g =
            match chain f g with
            | [] -> pretty g
            | hops ->
                Printf.sprintf "%s (via %s)" (pretty g)
                  (String.concat " -> " hops)
          in
          let shown = take 4 unsafe in
          let more = List.length unsafe - List.length shown in
          suppress_or_add Finding.Domain_unsafe_reach f.fn_file f.fn_line
            f.fn_col
            (Printf.sprintf
               "parallel-candidate entry `%s` transitively writes shared \
                mutable state: %s%s — make these per-domain (with a merge \
                step) before fanning out with Domain.spawn"
               epretty
               (String.concat ", " (List.map witness shown))
               (if more > 0 then Printf.sprintf " and %d more" more else ""))
        end;
        if rng_ambient then
          suppress_or_add Finding.Rng_ambient f.fn_file f.fn_line f.fn_col
            (Printf.sprintf
               "parallel-candidate entry `%s` reaches RNG state that is not \
                threaded as a parameter%s; per-domain determinism needs an \
                explicit split `Rng.t` per worker"
               epretty
               (match SS.choose_opt rng_globals with
               | Some g -> Printf.sprintf " (%s)" (pretty g)
               | None -> " (stdlib Random)"));
        SS.iter
          (fun g ->
            match Hashtbl.find_opt globals g with
            | Some gl ->
                if not (List.mem epretty gl.g_reached_by) then
                  gl.g_reached_by <- epretty :: gl.g_reached_by
            | None -> ())
          (SS.union f.fn_reads f.fn_writes);
        ignore name;
        {
          e_key = f.fn_key;
          e_pretty = epretty;
          e_file = f.fn_file;
          e_line = f.fn_line;
          e_eff = f.fn_eff;
          e_writes =
            List.map pretty (SS.elements f.fn_writes)
            |> List.sort String.compare;
          e_reads =
            List.map pretty (SS.elements f.fn_reads)
            |> List.sort String.compare;
          e_unsafe = List.map pretty unsafe |> List.sort String.compare;
          e_rng_ambient = rng_ambient;
        })
      entry_fns
  in
  List.iter
    (fun g -> g.g_reached_by <- List.sort String.compare g.g_reached_by)
    globals_list;
  {
    findings = List.sort Finding.compare !findings;
    suppressed = !suppressed_count;
    globals = globals_list;
    entries = entry_reports;
    functions = Hashtbl.length fns;
    units = List.length units;
    load_errors;
    unresolved_entries = List.rev !unresolved;
  }

(* ------------------------------------------------------------------ *)
(* Effect report                                                       *)
(* ------------------------------------------------------------------ *)

let effect_json (e : Effects.t) =
  Json.Obj
    [
      ("reads_global", Json.Bool e.Effects.reads_global);
      ("writes_global", Json.Bool e.Effects.writes_global);
      ("reads_param", Json.Bool e.Effects.reads_param);
      ("writes_param", Json.Bool e.Effects.writes_param);
      ("io", Json.Bool e.Effects.io);
      ("rng", Json.Bool e.Effects.rng);
      ("label", Json.Str (Effects.to_string e));
    ]

let report_json outcome =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  let global_json g =
    Json.Obj
      ([
         ("path", Json.Str g.g_pretty);
         ("file", Json.Str g.g_file);
         ("line", Json.Num (float_of_int g.g_line));
         ("col", Json.Num (float_of_int g.g_col));
         ("kind", Json.Str g.g_kind);
         ("type", Json.Str g.g_type);
         ("rng", Json.Bool g.g_rng);
         ("report_only", Json.Bool g.g_quiet);
         ("suppressed", Json.Bool (Option.is_some g.g_suppressed));
       ]
      @ (match g.g_suppressed with
        | Some reason -> [ ("reason", Json.Str reason) ]
        | None -> [])
      @ [
          ("writers", strs g.g_writers);
          ("readers", strs g.g_readers);
          ("reached_by", strs g.g_reached_by);
        ])
  in
  let entry_json e =
    Json.Obj
      [
        ("path", Json.Str e.e_pretty);
        ("file", Json.Str e.e_file);
        ("line", Json.Num (float_of_int e.e_line));
        ("effect", effect_json e.e_eff);
        ("globals_written", strs e.e_writes);
        ("globals_read", strs e.e_reads);
        ("unsafe_writes", strs e.e_unsafe);
        ("rng_ambient", Json.Bool e.e_rng_ambient);
      ]
  in
  let count rule =
    List.length
      (List.filter (fun (f : Finding.t) -> f.rule = rule) outcome.findings)
  in
  Json.Obj
    [
      ("version", Json.Num 1.0);
      ("units", Json.Num (float_of_int outcome.units));
      ("functions", Json.Num (float_of_int outcome.functions));
      ("globals", Json.Arr (List.map global_json outcome.globals));
      ("entries", Json.Arr (List.map entry_json outcome.entries));
      ( "summary",
        Json.Obj
          [
            ("global_count", Json.Num (float_of_int (List.length outcome.globals)));
            ( "suppressed_globals",
              Json.Num
                (float_of_int
                   (List.length
                      (List.filter
                         (fun g -> Option.is_some g.g_suppressed)
                         outcome.globals))) );
            ( "global_mut_state",
              Json.Num (float_of_int (count Finding.Global_mut_state)) );
            ( "domain_unsafe_reach",
              Json.Num (float_of_int (count Finding.Domain_unsafe_reach)) );
            ("rng_ambient", Json.Num (float_of_int (count Finding.Rng_ambient)));
          ] );
    ]
