(* Tests for the strategy-as-a-service layer: LRU cache semantics,
   quantized cache keys, the JSONL protocol (including the pinned
   solver-error → wire-code mapping), and the server's request loop
   under a deterministic fake clock. *)

module Cache = Stochserve.Cache
module Quantize = Stochserve.Quantize
module Protocol = Stochserve.Protocol
module Resolve = Stochserve.Resolve
module Server = Stochserve.Server
module J = Stochobs.Json

let str_list = Alcotest.(check (list string))

(* ------------------------------ cache ----------------------------- *)

let test_cache_capacity () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Cache.create: capacity must be >= 1, got 0") (fun () ->
      ignore (Cache.create ~capacity:0 : unit Cache.t));
  let c = Cache.create ~capacity:1 in
  Alcotest.(check int) "capacity stored" 1 (Cache.capacity c)

let outcome =
  let pp fmt = function
    | Cache.Inserted -> Format.fprintf fmt "Inserted"
    | Cache.Replaced -> Format.fprintf fmt "Replaced"
    | Cache.Evicted k -> Format.fprintf fmt "Evicted %s" k
  in
  Alcotest.testable pp ( = )

let keys_lru c = List.map fst (Cache.bindings_lru c)

let test_cache_eviction_order () =
  let c = Cache.create ~capacity:2 in
  Alcotest.check outcome "a inserted" Cache.Inserted (Cache.put c "a" 1);
  Alcotest.check outcome "b inserted" Cache.Inserted (Cache.put c "b" 2);
  str_list "lru order" [ "a"; "b" ] (keys_lru c);
  Alcotest.check outcome "c evicts the LRU key a" (Cache.Evicted "a")
    (Cache.put c "c" 3);
  str_list "a gone" [ "b"; "c" ] (keys_lru c);
  Alcotest.(check (option int)) "a misses" None (Cache.find c "a");
  Alcotest.(check (option int)) "b still cached" (Some 2) (Cache.find c "b")

let test_cache_recency_bump () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.put c "a" 1);
  ignore (Cache.put c "b" 2);
  (* Touch [a]: now [b] is the least recently used entry. *)
  Alcotest.(check (option int)) "hit bumps" (Some 1) (Cache.find c "a");
  Alcotest.check outcome "c evicts b, not a" (Cache.Evicted "b")
    (Cache.put c "c" 3);
  str_list "survivors" [ "a"; "c" ] (keys_lru c)

let test_cache_replace_and_counters () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.put c "a" 1);
  Alcotest.check outcome "same key overwrites" Cache.Replaced
    (Cache.put c "a" 10);
  Alcotest.(check int) "size unchanged" 1 (Cache.size c);
  Alcotest.(check (option int)) "new value" (Some 10) (Cache.find c "a");
  ignore (Cache.find c "missing");
  ignore (Cache.find c "a");
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Alcotest.(check (float 1e-12)) "hit rate" (2.0 /. 3.0) (Cache.hit_rate c)

(* ----------------------------- quantize ---------------------------- *)

let test_grid_validation () =
  let ok v = Result.is_ok (Quantize.check_grid v) in
  Alcotest.(check bool) "0.05 valid" true (ok 0.05);
  Alcotest.(check bool) "1.0 valid" true (ok 1.0);
  Alcotest.(check bool) "zero invalid" false (ok 0.0);
  Alcotest.(check bool) "negative invalid" false (ok (-0.1));
  Alcotest.(check bool) "above 1 invalid" false (ok 1.5);
  Alcotest.(check bool) "nan invalid" false (ok Float.nan)

let lognormal_key ~grid ~mu ~sigma =
  Quantize.key ~grid ~family:"lognormal"
    ~params:[ ("mu", mu); ("sigma", sigma) ]
    ~model:Stochastic_core.Cost_model.reservation_only ~strategy:"cascade"
    ~m:300 ~n:200 ~disc_n:200 ~max_evaluations:200_000 ~seed:42 ~count:10
    ~exact:false

let test_key_canonicalization () =
  (* Two tenants fitting near-identical traces: (mu, sigma) differing
     by ~0.1 % land in the same bucket on a 5 % grid... *)
  let k1 = lognormal_key ~grid:0.05 ~mu:7.1128 ~sigma:0.2039 in
  let k2 = lognormal_key ~grid:0.05 ~mu:7.1167 ~sigma:0.2041 in
  Alcotest.(check string) "nearby fits share a key" k1 k2;
  (* ... while parameters several buckets away must not alias. *)
  let far = lognormal_key ~grid:0.05 ~mu:9.2 ~sigma:0.41 in
  Alcotest.(check bool) "distant fit splits" false (String.equal k1 far);
  (* Everything that changes the answer is part of the key. *)
  let other_strategy =
    Quantize.key ~grid:0.05 ~family:"lognormal"
      ~params:[ ("mu", 7.1128); ("sigma", 0.2039) ]
      ~model:Stochastic_core.Cost_model.reservation_only
      ~strategy:"mean-doubling" ~m:300 ~n:200 ~disc_n:200
      ~max_evaluations:200_000 ~seed:42 ~count:10 ~exact:false
  in
  Alcotest.(check bool) "strategy splits" false (String.equal k1 other_strategy)

(* Floats of every class: any bit pattern (nan, infinities,
   subnormals), ordinary magnitudes, integers and signed zeros. *)
let any_float =
  QCheck.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits ui64);
        (3, float_range (-1e3) 1e3);
        (1, map float_of_int (int_range (-1000) 1000));
        (1, oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 5e-324 ]);
      ])

(* Names with upper-case letters, separators and escapes. *)
let any_name = QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 10))

let any_int =
  QCheck.Gen.(frequency [ (4, int_range (-1000) 100_000); (1, oneofl [ 0; min_int; max_int ]); (1, int) ])

(* The key is written piece by piece; it must be the Printf form's,
   byte for byte, on any grid, parameters and budget. *)
let prop_key_printf =
  let gen =
    QCheck.Gen.(
      let* grid = float_range 1e-3 1.0 in
      let* family = any_name and* strategy = any_name in
      let* params = list_size (int_range 0 3) (pair any_name any_float) in
      let* alpha = float_range 1e-9 1e9 and* beta = oneof [ return 0.0; float_range 0.0 1e9 ]
      and* gamma = oneof [ return 0.0; float_range 0.0 1e9 ] in
      let* ints = list_repeat 6 any_int and* exact = bool in
      return (grid, family, strategy, params, (alpha, beta, gamma), ints, exact))
  in
  QCheck.Test.make ~count:2000 ~name:"Quantize.key = its Printf form" (QCheck.make gen)
    (fun (grid, family, strategy, params, (alpha, beta, gamma), ints, exact) ->
      let model = Stochastic_core.Cost_model.make ~alpha ~beta ~gamma () in
      match ints with
      | [ m; n; disc_n; max_evaluations; seed; count ] ->
          String.equal
            (Quantize.key ~grid ~family ~params ~model ~strategy ~m ~n ~disc_n
               ~max_evaluations ~seed ~count ~exact)
            (Wire_oracle.key ~grid ~family ~params ~model ~strategy ~m ~n ~disc_n
               ~max_evaluations ~seed ~count ~exact)
      | _ -> false)

(* A hit splices the entry's cached tail after the fields that name
   the request; the result must be the whole object rendered at once. *)
let prop_solve_response_obj =
  let gen =
    QCheck.Gen.(
      let* id =
        oneof
          [
            return None;
            map (fun i -> Some (J.Num (float_of_int i))) any_int;
            map (fun v -> Some (J.Num v)) any_float;
            map (fun s -> Some (J.Str s)) any_name;
            map (fun s -> Some (J.Obj [ (s, J.Arr [ J.Null; J.Bool true ]) ])) any_name;
          ]
      in
      let* cached = bool and* key = any_name and* dist_name = any_name and* tier = any_name in
      let* degraded = bool and* head = array_size (int_range 0 6) any_float in
      let* cost = any_float and* normalized = any_float in
      return (id, cached, key, { Protocol.dist_name; tier; degraded; head; cost; normalized }))
  in
  QCheck.Test.make ~count:2000 ~name:"solve_response = the whole Json.Obj"
    (QCheck.make gen)
    (fun (id, cached, key, solved) ->
      String.equal
        (Protocol.solve_response ~id ~cached ~key ~tail:(Protocol.solved_tail solved))
        (Wire_oracle.solve_response ~id ~cached ~key solved))

(* ----------------------------- protocol ---------------------------- *)

let parse_ok line =
  match Protocol.parse_request line with
  | Ok (id, req) -> (id, req)
  | Error (_, e) -> Alcotest.failf "unexpected parse error: %s" e.detail

let parse_err line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error (id, e) -> (id, e)

let test_parse_solve () =
  let _, req =
    parse_ok
      {|{"kind":"solve","dist":{"family":"lognormal","mu":1.5,"sigma":0.5},
         "model":"hpc","strategy":"bf","budget":{"m":50},"seed":7,
         "count":3,"exact":true}|}
  in
  match req with
  | Protocol.Solve s ->
      (match s.dist with
      | Protocol.Lognormal { mu; sigma } ->
          Alcotest.(check (float 0.0)) "mu" 1.5 mu;
          Alcotest.(check (float 0.0)) "sigma" 0.5 sigma
      | _ -> Alcotest.fail "expected Lognormal dist");
      Alcotest.(check bool) "hpc model" true (s.model = Protocol.Hpc);
      Alcotest.(check string) "strategy" "bf" s.strategy;
      Alcotest.(check (option int)) "budget m" (Some 50) s.budget.Protocol.m;
      Alcotest.(check (option int)) "seed" (Some 7) s.seed;
      Alcotest.(check int) "count" 3 s.count;
      Alcotest.(check bool) "exact" true s.exact
  | _ -> Alcotest.fail "expected Solve"

let test_parse_defaults () =
  let _, req = parse_ok {|{"kind":"solve","dist":{"name":"exponential"}}|} in
  match req with
  | Protocol.Solve s ->
      Alcotest.(check string) "default strategy" "cascade" s.strategy;
      Alcotest.(check int) "default count" 10 s.count;
      Alcotest.(check bool) "default exact" false s.exact;
      Alcotest.(check (option int)) "no seed" None s.seed
  | _ -> Alcotest.fail "expected Solve"

let test_parse_errors () =
  let _, e = parse_err "not json at all" in
  Alcotest.(check int) "malformed line is usage" 2 e.Protocol.code;
  let id, e = parse_err {|{"kind":"frobnicate","id":9}|} in
  Alcotest.(check int) "unknown kind is usage" 2 e.Protocol.code;
  Alcotest.(check bool) "id echoed" true (id = Some (J.Num 9.0));
  let _, e = parse_err {|{"kind":"solve"}|} in
  Alcotest.(check int) "missing dist is usage" 2 e.Protocol.code;
  let _, e = parse_err {|{"kind":"fit","tenant":"t","samples":[1,"x"]}|} in
  Alcotest.(check int) "non-numeric sample is usage" 2 e.Protocol.code;
  let _, e =
    parse_err {|{"kind":"solve","dist":{"name":"exp"},"count":0}|}
  in
  Alcotest.(check int) "count below 1 is usage" 2 e.Protocol.code

let test_resolve_routing () =
  Alcotest.(check bool) "cascade routes to the full chain" true
    (Resolve.tiers_of_strategy "cascade" = Some Robust.Solver.all_tiers);
  Alcotest.(check bool) "bf restricts the cascade" true
    (Resolve.tiers_of_strategy "bf" = Some [ Robust.Solver.Brute_force ]);
  Alcotest.(check bool) "heuristics are not cascade-addressable" true
    (Resolve.tiers_of_strategy "mean-by-mean" = None);
  Alcotest.(check bool) "tiers list parses" true
    (Resolve.tiers_of_string "bf, dp"
    = Ok [ Robust.Solver.Brute_force; Robust.Solver.Dp_equal_probability ]);
  Alcotest.(check bool) "unknown tier is an error" true
    (Result.is_error (Resolve.tiers_of_string "bf,alphabetical"));
  Alcotest.(check bool) "unknown strategy is an error" true
    (Result.is_error (Resolve.strategy ~budget:Robust.Solver.quick_budget ~seed:1 "nope"));
  Alcotest.(check bool) "unknown distribution is an error" true
    (Result.is_error (Resolve.dist "not-a-distribution"))

(* The satellite contract: the daemon's error codes ARE the CLI exit
   codes, variant by variant. If the solver taxonomy grows a case,
   this test fails until the wire mapping catches up. *)
let test_error_code_mapping () =
  let report = Robust.Dist_check.run Distributions.Lognormal.default in
  let cases =
    [
      (Robust.Solver.Invalid_distribution report, 4, "invalid-distribution");
      ( Robust.Solver.Non_convergent { stage = "s"; detail = "d" },
        5,
        "non-convergent" );
      ( Robust.Solver.Budget_exhausted
          { stage = "s"; evaluations = 1; elapsed = 0.1 },
        6,
        "budget-exhausted" );
      ( Robust.Solver.Invalid_parameter { name = "n"; detail = "d" },
        7,
        "invalid-parameter" );
    ]
  in
  List.iter
    (fun (err, code, label) ->
      let e = Protocol.error_of_solver err in
      Alcotest.(check int) (label ^ " code") code e.Protocol.code;
      Alcotest.(check int)
        (label ^ " matches CLI exit code")
        (Robust.Solver.exit_code err)
        e.Protocol.code;
      Alcotest.(check string) (label ^ " label") label e.Protocol.label;
      Alcotest.(check string)
        (label ^ " detail")
        (Robust.Solver.error_to_string err)
        e.Protocol.detail)
    cases

(* ------------------------------ server ----------------------------- *)

let quick_server ?obs ?clock () =
  Server.create ?obs ?clock
    {
      Server.default_config with
      Server.budget = Robust.Solver.quick_budget;
      cache_capacity = 8;
    }

let respond server line =
  match Server.handle_line server line with
  | Some resp, stop -> (
      match J.of_string resp with
      | Ok j -> (j, stop)
      | Error e -> Alcotest.failf "unparseable response %s: %s" resp e)
  | None, _ -> Alcotest.fail "expected a response line"

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let test_server_cache_roundtrip () =
  let s = quick_server () in
  let line = {|{"kind":"solve","id":1,"dist":{"name":"lognormal"}}|} in
  let r1, stop1 = respond s line in
  Alcotest.(check bool) "solve does not stop the loop" false stop1;
  Alcotest.(check bool) "first is cold" true
    (field "cached" r1 = J.Bool false);
  let r2, _ = respond s line in
  Alcotest.(check bool) "second is cached" true
    (field "cached" r2 = J.Bool true);
  Alcotest.(check bool) "ok" true (field "ok" r2 = J.Bool true);
  (* The cached answer is byte-identical apart from id + cached flag. *)
  List.iter
    (fun f ->
      Alcotest.(check string) ("identical " ^ f)
        (J.to_string (field f r1))
        (J.to_string (field f r2)))
    [ "key"; "dist"; "tier"; "sequence"; "cost"; "normalized" ]

let test_server_fit_then_solve () =
  let s = quick_server () in
  let r, _ =
    respond s
      {|{"kind":"fit","id":1,"tenant":"u1",
         "samples":[812.2,904.1,1100.0,950.5,870.3,1010.9,939.4,1002.2]}|}
  in
  Alcotest.(check bool) "fit ok" true (field "ok" r = J.Bool true);
  let r, _ = respond s {|{"kind":"solve","id":2,"dist":{"tenant":"u1"}}|} in
  Alcotest.(check bool) "tenant solve ok" true (field "ok" r = J.Bool true);
  let r, _ = respond s {|{"kind":"solve","id":3,"dist":{"tenant":"ghost"}}|} in
  Alcotest.(check bool) "unknown tenant fails" true
    (field "ok" r = J.Bool false);
  Alcotest.(check bool) "as usage error" true (field "code" r = J.Num 2.0)

let test_server_error_paths () =
  let s = quick_server () in
  let r, stop = respond s "][" in
  Alcotest.(check bool) "malformed does not stop" false stop;
  Alcotest.(check bool) "malformed is code 2" true (field "code" r = J.Num 2.0);
  let r, _ =
    respond s {|{"kind":"solve","id":1,"dist":{"name":"exp"},
                 "strategy":"alphabetical"}|}
  in
  Alcotest.(check bool) "unknown strategy is code 2" true
    (field "code" r = J.Num 2.0);
  let r, _ =
    respond s
      {|{"kind":"solve","id":2,
         "dist":{"family":"lognormal","mu":1.0,"sigma":-2.0}}|}
  in
  Alcotest.(check bool) "bad sigma is invalid-distribution" true
    (field "code" r = J.Num 4.0);
  Alcotest.(check bool) "blank line is silent" true
    (Server.handle_line s "   " = (None, false))

let test_server_stats_and_shutdown () =
  let s = quick_server () in
  let solve = {|{"kind":"solve","id":1,"dist":{"name":"lognormal"}}|} in
  ignore (respond s solve);
  ignore (respond s solve);
  ignore (respond s "junk");
  let r, _ = respond s {|{"kind":"stats","id":4}|} in
  let stats = field "stats" r in
  let requests = field "requests" stats in
  Alcotest.(check bool) "solve count" true (field "solve" requests = J.Num 2.0);
  Alcotest.(check bool) "error count" true
    (field "errors" requests = J.Num 1.0);
  let cache = field "cache" stats in
  Alcotest.(check bool) "one hit" true (field "hits" cache = J.Num 1.0);
  Alcotest.(check bool) "one miss" true (field "misses" cache = J.Num 1.0);
  let r, stop = respond s {|{"kind":"shutdown","id":5}|} in
  Alcotest.(check bool) "shutdown acknowledged" true
    (field "ok" r = J.Bool true);
  Alcotest.(check bool) "shutdown stops the loop" true stop

(* ---------------------------- transport ---------------------------- *)

module Transport = Stochserve.Transport

let never () = false

let script_recv lines =
  let script = ref lines in
  let recv () =
    match !script with
    | [] -> None
    | l :: rest ->
        script := rest;
        Some l
  in
  (script, recv)

let test_pump () =
  let s = quick_server () in
  let script, recv =
    script_recv
      [
        {|{"kind":"solve","id":1,"dist":{"name":"exponential"}}|};
        "";
        {|{"kind":"shutdown","id":2}|};
        {|{"kind":"stats","id":3}|};
      ]
  in
  let out = ref [] in
  let shutdown =
    Transport.pump ~stop:never (Server.handle_line s) ~recv
      ~send:(fun l -> out := l :: !out)
  in
  Alcotest.(check bool) "a shutdown request ends the pump" true shutdown;
  Alcotest.(check int) "shutdown halts before the stats line" 2
    (List.length !out);
  Alcotest.(check bool) "unconsumed input remains" true (!script <> [])

let sock_path () =
  let path = Filename.temp_file "stochserve-test" ".sock" in
  Sys.remove path;
  path

let test_pump_stop () =
  let s = quick_server () in
  let script, recv = script_recv (List.init 3 (fun _ -> {|{"kind":"stats"}|})) in
  let answered = ref 0 in
  let shutdown =
    Transport.pump
      ~stop:(fun () -> !answered >= 1)
      (Server.handle_line s) ~recv
      ~send:(fun _ -> incr answered)
  in
  Alcotest.(check bool) "a stop request is not a shutdown" false shutdown;
  Alcotest.(check int) "the stop ends the loop after one answer" 1 !answered;
  Alcotest.(check int) "the rest is left unread" 2 (List.length !script);
  (* Seen before the first accept, it ends the socket loop too. *)
  let path = sock_path () in
  Alcotest.(check bool) "socket loop ends" true
    (Transport.serve_socket ~stop:(fun () -> true) s path = Ok ());
  Alcotest.(check bool) "and removes its socket" false (Sys.file_exists path)

(* No request reachable over the wire outstays the solver's own budget
   guard, so the fuse is tested on a handler that spins. *)
let test_watchdog () =
  let s = quick_server () in
  let handle =
    Transport.watchdog ~fuse:0.05 (fun line ->
        if line = "spin" then begin
          while true do
            ()
          done;
          (None, false)
        end
        else Server.handle_line s line)
  in
  let _, recv = script_recv [ "spin"; {|{"kind":"stats","id":2}|} ] in
  let out = ref [] in
  ignore (Transport.pump ~stop:never handle ~recv ~send:(fun l -> out := l :: !out));
  match List.rev_map J.of_string !out with
  | [ Ok fired; Ok next ] ->
      Alcotest.(check bool) "the overlong request answers code 6" true
        (field "code" fired = J.Num 6.0);
      let budget =
        Protocol.error_of_solver
          (Robust.Solver.Budget_exhausted
             { stage = "x"; evaluations = 0; elapsed = 0.0 })
      in
      Alcotest.(check bool) "with the protocol's code-6 label" true
        (field "error" fired = J.Str budget.Protocol.label);
      Alcotest.(check bool) "the next request is served" true
        (field "ok" next = J.Bool true && field "id" next = J.Num 2.0)
  | _ -> Alcotest.fail "expected two JSON response lines"

let rec connect ?(tries = 500) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      connect ~tries:(tries - 1) path

(* One client: send [payload], half-close, read the answers until the
   daemon hangs up. *)
let session path payload =
  let fd = connect path in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc payload;
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let answers = In_channel.input_all (Unix.in_channel_of_descr fd) in
  Unix.close fd;
  List.filter (( <> ) "") (String.split_on_char '\n' answers)

(* A client that sends half a line and hangs up without reading. *)
let hang_up path =
  let fd = connect path in
  ignore (Unix.write_substring fd {|{"kind":"st|} 0 11);
  Unix.close fd

(* Serve [path] in this domain while [clients] run in another; the
   daemon ignores SIGPIPE, as the CLI installs it. *)
let with_clients path clients =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = quick_server () in
  let client = Domain.spawn clients in
  let served = Transport.serve_socket ~stop:never s path in
  (served, Domain.join client)

let ids lines =
  List.map
    (fun l ->
      match J.of_string l with
      | Ok j when field "ok" j = J.Bool true -> field "id" j
      | _ -> Alcotest.failf "not an ok answer: %s" l)
    lines

let test_socket_clients () =
  let path = sock_path () in
  let served, answers =
    with_clients path (fun () ->
        let first = session path "{\"kind\":\"stats\",\"id\":1}\n" in
        let second =
          session path
            "{\"kind\":\"stats\",\"id\":2}\n\n{\"kind\":\"shutdown\",\"id\":3}\n"
        in
        first @ second)
  in
  Alcotest.(check bool) "served until the shutdown" true (served = Ok ());
  Alcotest.(check bool) "one answer per request, in order" true
    (ids answers = [ J.Num 1.0; J.Num 2.0; J.Num 3.0 ]);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_socket_hang_up () =
  let path = sock_path () in
  let served, answers =
    with_clients path (fun () ->
        hang_up path;
        session path "{\"kind\":\"stats\",\"id\":1}\n{\"kind\":\"shutdown\",\"id\":2}\n")
  in
  Alcotest.(check bool) "the daemon outlives the client" true (served = Ok ());
  Alcotest.(check bool) "and serves the next one" true
    (ids answers = [ J.Num 1.0; J.Num 2.0 ]);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_socket_not_a_socket () =
  let path = Filename.temp_file "stochserve-test" ".txt" in
  Out_channel.with_open_text path (fun oc -> output_string oc "keep me");
  (* Were it removed, the loop would bind there and stop at once. *)
  (match Transport.serve_socket ~stop:(fun () -> true) (quick_server ()) path with
  | Ok () -> Alcotest.fail "a regular file must be refused"
  | Error _ -> ());
  Alcotest.(check string) "the file survives untouched" "keep me"
    (In_channel.with_open_text path In_channel.input_all);
  Sys.remove path

let test_reject_nonfinite_params () =
  let s = quick_server () in
  (* 1e999 overflows to infinity in the JSON reader; the protocol must
     refuse it as a usage error, not hand inf to the solver. *)
  let r, _ =
    respond s
      {|{"kind":"solve","id":1,
         "dist":{"family":"lognormal","mu":1e999,"sigma":0.5}}|}
  in
  Alcotest.(check bool) "inf mu is code 2" true (field "code" r = J.Num 2.0);
  let r, _ =
    respond s
      {|{"kind":"solve","id":2,"dist":{"name":"exp"},
         "budget":{"max_seconds":1e999}}|}
  in
  Alcotest.(check bool) "inf budget is code 2" true
    (field "code" r = J.Num 2.0);
  let r, _ =
    respond s {|{"kind":"fit","id":3,"tenant":"t","samples":[1.0,1e999]}|}
  in
  Alcotest.(check bool) "inf sample is code 2" true (field "code" r = J.Num 2.0)

let test_line_length_cap () =
  let s =
    Server.create
      { Server.default_config with Server.max_line_bytes = 128 }
  in
  let padded =
    Printf.sprintf {|{"kind":"solve","id":1,"dist":{"name":"exp"},"pad":%S}|}
      (String.make 200 'x')
  in
  let r, stop = respond s padded in
  Alcotest.(check bool) "oversized line does not stop" false stop;
  Alcotest.(check bool) "refused as code 2" true (field "code" r = J.Num 2.0);
  let r, _ = respond s {|{"kind":"stats","id":2}|} in
  let requests = field "requests" (field "stats" r) in
  Alcotest.(check bool) "counted as an error" true
    (field "errors" requests = J.Num 1.0)

(* Overload shedding, driven by a fake clock: every request reads the
   clock twice, so each appears to take one full step. With a deadline
   below the step, pressure builds request by request; at the
   threshold the server degrades cache misses to mean doubling and
   says so on the wire. *)
let test_overload_shedding () =
  let s =
    Server.create
      ~clock:(Stochobs.Clock.fake ~step:1.0 ())
      {
        Server.default_config with
        Server.budget = Robust.Solver.quick_budget;
        deadline = Some 0.5;
        shed_threshold = 2;
      }
  in
  ignore (respond s {|{"kind":"solve","id":1,"dist":{"name":"exp"}}|});
  ignore (respond s {|{"kind":"solve","id":2,"dist":{"name":"uniform"}}|});
  let r, _ = respond s {|{"kind":"solve","id":3,"dist":{"name":"lognormal"}}|} in
  Alcotest.(check bool) "shed answer is ok" true (field "ok" r = J.Bool true);
  Alcotest.(check bool) "shed answer is degraded" true
    (field "degraded" r = J.Bool true);
  Alcotest.(check bool) "mean doubling answered it" true
    (field "tier" r = J.Str "mean-doubling");
  (* Shed answers are not cached: the same request later must be a
     miss (and, still shedding, again degraded). *)
  let r, _ = respond s {|{"kind":"solve","id":4,"dist":{"name":"lognormal"}}|} in
  Alcotest.(check bool) "shed answers are not cached" true
    (field "cached" r = J.Bool false);
  let r, _ = respond s {|{"kind":"stats","id":5}|} in
  let stats = field "stats" r in
  let overload = field "overload" stats in
  Alcotest.(check bool) "overload reported" true
    (field "shedding" overload = J.Bool true);
  Alcotest.(check bool) "shed responses counted" true
    (field "shed_responses" overload = J.Num 2.0);
  Alcotest.(check bool) "deadline overruns counted" true
    (match field "deadline_exceeded" overload with
    | J.Num n -> n >= 4.0
    | _ -> false)

(* Journal wiring end to end: solves are persisted, the stats response
   says so, and a close/reopen serves the same answers warm. *)
let test_journal_stats_and_warm_restart () =
  let path = Filename.temp_file "stochserve-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let config =
        {
          Server.default_config with
          Server.budget = Robust.Solver.quick_budget;
          cache_capacity = 8;
        }
      in
      let s =
        Server.create ~journal:(Stochserve.Journal.open_ path) config
      in
      let solve = {|{"kind":"solve","id":1,"dist":{"name":"lognormal"}}|} in
      let r1, _ = respond s solve in
      ignore (respond s solve);
      let r, _ = respond s {|{"kind":"stats","id":2}|} in
      let journal = field "journal" (field "stats" r) in
      Alcotest.(check bool) "journal enabled" true
        (field "enabled" journal = J.Bool true);
      Alcotest.(check bool) "one append (hits are not re-journalled)" true
        (field "appended" journal = J.Num 1.0);
      Alcotest.(check bool) "nothing skipped" true
        (field "skipped_corrupt" journal = J.Num 0.0);
      Server.close s;
      let s =
        Server.create ~journal:(Stochserve.Journal.open_ path) config
      in
      let r2, _ = respond s solve in
      Alcotest.(check bool) "warm after restart" true
        (field "cached" r2 = J.Bool true);
      List.iter
        (fun f ->
          Alcotest.(check string) ("restart-identical " ^ f)
            (J.to_string (field f r1))
            (J.to_string (field f r2)))
        [ "key"; "dist"; "tier"; "sequence"; "cost"; "normalized" ];
      let r, _ = respond s {|{"kind":"stats","id":3}|} in
      let journal = field "journal" (field "stats" r) in
      Alcotest.(check bool) "recovery reported" true
        (field "recovered" journal = J.Num 1.0);
      Server.close s)

(* Golden trace: one stats request under the fake clock must produce
   these exact bytes — the reproducibility contract behind the serve
   command's --fake-clock flag. *)
let test_fake_clock_golden_trace () =
  let buf = Buffer.create 256 in
  let sink =
    Stochobs.Trace.make
      ~clock:(Stochobs.Clock.fake ~step:1.0 ())
      (Stochobs.Writer.to_buffer buf)
  in
  let s = quick_server ~obs:sink ~clock:(Stochobs.Clock.fake ()) () in
  ignore (Server.handle_line s {|{"kind":"stats","id":1}|});
  let expected =
    {|{"type": "span","name": "service.request","id": 1,"start": 0,"end": 1,"attrs": {"kind": "stats","request_id": 1,"ok": true}}
|}
  in
  Alcotest.(check string) "golden request span" expected (Buffer.contents buf)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The metrics request returns the live registry as Prometheus text
   exposition — the scrape contract behind `stochastic serve`. *)
let test_metrics_request () =
  let s =
    Server.create
      ~metrics:(Stochobs.Metrics.create ~enabled:true ())
      {
        Server.default_config with
        Server.budget = Robust.Solver.quick_budget;
      }
  in
  ignore (respond s {|{"kind":"solve","id":1,"dist":{"name":"exponential"}}|});
  let r, stop = respond s {|{"kind":"metrics","id":2}|} in
  Alcotest.(check bool) "metrics does not stop the loop" false stop;
  Alcotest.(check bool) "ok" true (field "ok" r = J.Bool true);
  Alcotest.(check bool) "kind echoed" true (field "kind" r = J.Str "metrics");
  Alcotest.(check bool) "content type is prometheus text" true
    (match field "content_type" r with
    | J.Str c -> contains c "text/plain"
    | _ -> false);
  let exposition =
    match field "exposition" r with
    | J.Str e -> e
    | _ -> Alcotest.fail "exposition is not a string"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains exposition needle))
    [
      "# TYPE service_requests_solve_total counter\n";
      "service_requests_solve_total 1\n";
      "service_requests_metrics_total 1\n";
      "service_requests_fit_total 0\n";
      "service_requests_stats_total 0\n";
      "service_requests_shutdown_total 0\n";
      "service_request_seconds_bucket";
      "service_request_p99_window";
    ]

(* The per-kind request counts in the stats response and the
   service_requests_<kind>_total counters of the exposition are kept in
   step: every kind, including one never requested, reads the same in
   both. *)
let test_request_counts_agree () =
  let s =
    Server.create
      ~metrics:(Stochobs.Metrics.create ~enabled:true ())
      {
        Server.default_config with
        Server.budget = Robust.Solver.quick_budget;
      }
  in
  List.iter
    (fun line -> ignore (respond s line))
    [
      {|{"kind":"solve","id":1,"dist":{"name":"exponential"}}|};
      {|{"kind":"stats","id":2}|};
      {|{"kind":"shutdown","id":3}|};
      {|{"kind":"metrics","id":4}|};
    ];
  let r, _ = respond s {|{"kind":"metrics","id":5}|} in
  let exposition =
    match field "exposition" r with
    | J.Str e -> e
    | _ -> Alcotest.fail "exposition is not a string"
  in
  let r, _ = respond s {|{"kind":"stats","id":6}|} in
  let requests = field "requests" (field "stats" r) in
  (* The stats request just made counts in [requests] only. *)
  List.iter
    (fun (kind, in_exposition) ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition counts %s %d" kind in_exposition)
        true
        (contains exposition
           (Printf.sprintf "service_requests_%s_total %d\n" kind in_exposition));
      let in_stats = in_exposition + if kind = "stats" then 1 else 0 in
      Alcotest.(check bool)
        (Printf.sprintf "stats counts %s %d" kind in_stats)
        true
        (field kind requests = J.Num (float_of_int in_stats)))
    [ ("solve", 1); ("fit", 0); ("stats", 1); ("metrics", 2); ("shutdown", 1) ]

(* overload.state in the stats response walks ok -> pressure ->
   shedding as the coarse fake clock drives every request past its
   deadline, and the rolling p99 gauge reports the same overruns. *)
let test_overload_state_and_p99 () =
  let s =
    Server.create
      ~clock:(Stochobs.Clock.fake ~step:1.0 ())
      {
        Server.default_config with
        Server.budget = Robust.Solver.quick_budget;
        deadline = Some 0.5;
        shed_threshold = 2;
      }
  in
  let overload_of r = field "overload" (field "stats" r) in
  let r, _ = respond s {|{"kind":"stats","id":1}|} in
  Alcotest.(check bool) "fresh server is ok" true
    (field "state" (overload_of r) = J.Str "ok");
  Alcotest.(check bool) "window starts empty" true
    (field "p99_window_seconds" (overload_of r) = J.Num 0.0);
  let r, _ = respond s {|{"kind":"stats","id":2}|} in
  Alcotest.(check bool) "one overrun is pressure" true
    (field "state" (overload_of r) = J.Str "pressure");
  (* A stats request reads the fake clock three times (start, uptime,
     end), so its recorded latency is exactly two steps. *)
  Alcotest.(check bool) "p99 window sees the overrun" true
    (field "p99_window_seconds" (overload_of r) = J.Num 2.0);
  let r, _ = respond s {|{"kind":"stats","id":3}|} in
  Alcotest.(check bool) "threshold tips the state to shedding" true
    (field "state" (overload_of r) = J.Str "shedding")

(* The rolling p99 gauge keeps the window's two largest latencies as
   requests arrive. Pinned against the nearest-rank pass over the last
   128 latencies, on a stream with ties, NaN-free rises and long falls
   (every request of a fall evicts one of the two largest). After the
   read [create] makes, the clock reads 0 when a request starts and
   its scripted latency when it ends. *)
let test_window_p99_incremental () =
  let rng = Randomness.Rng.create ~seed:17 () in
  let latencies =
    Array.init 700 (fun i ->
        if i >= 300 && i < 500 then float_of_int (500 - i) *. 1e-4
        else float_of_int (Randomness.Rng.int rng 40) *. 1e-5)
  in
  let reads = ref (-1) in
  let clock () =
    let k = !reads in
    incr reads;
    if k < 0 || k mod 2 = 0 then 0.0 else latencies.(k / 2)
  in
  let registry = Stochobs.Metrics.create ~enabled:true () in
  let s =
    Server.create ~clock ~metrics:registry
      { Server.default_config with Server.budget = Robust.Solver.quick_budget }
  in
  let gauge () =
    match
      List.assoc "service.request.p99_window" (Stochobs.Metrics.snapshot registry)
    with
    | Stochobs.Metrics.Gauge_v { last; _ } -> last
    | _ -> Alcotest.fail "service.request.p99_window is not a gauge"
  in
  Array.iteri
    (fun i _ ->
      ignore (Server.handle_line s "not json");
      let lo = max 0 (i + 1 - 128) in
      let window = Array.sub latencies lo (i + 1 - lo) in
      let expected = Numerics.Stats.quantile_nearest_rank window 0.99 in
      if not (Float.equal expected (gauge ())) then
        Alcotest.failf "request %d: p99 %h, pass %h" i (gauge ()) expected)
    latencies

let () =
  Alcotest.run "service"
    [
      ( "cache",
        [
          Alcotest.test_case "capacity" `Quick test_cache_capacity;
          Alcotest.test_case "eviction order" `Quick test_cache_eviction_order;
          Alcotest.test_case "recency bump" `Quick test_cache_recency_bump;
          Alcotest.test_case "replace and counters" `Quick
            test_cache_replace_and_counters;
        ] );
      ( "quantize",
        [
          Alcotest.test_case "grid validation" `Quick test_grid_validation;
          Alcotest.test_case "key canonicalization" `Quick
            test_key_canonicalization;
          QCheck_alcotest.to_alcotest prop_key_printf;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse solve" `Quick test_parse_solve;
          Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "resolve routing" `Quick test_resolve_routing;
          Alcotest.test_case "solver error codes pinned" `Quick
            test_error_code_mapping;
          QCheck_alcotest.to_alcotest prop_solve_response_obj;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache roundtrip" `Quick
            test_server_cache_roundtrip;
          Alcotest.test_case "fit then solve" `Quick test_server_fit_then_solve;
          Alcotest.test_case "error paths" `Quick test_server_error_paths;
          Alcotest.test_case "stats and shutdown" `Quick
            test_server_stats_and_shutdown;
          Alcotest.test_case "non-finite parameters rejected" `Quick
            test_reject_nonfinite_params;
          Alcotest.test_case "line length cap" `Quick test_line_length_cap;
          Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
          Alcotest.test_case "journal stats and warm restart" `Quick
            test_journal_stats_and_warm_restart;
          Alcotest.test_case "fake-clock golden trace" `Quick
            test_fake_clock_golden_trace;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_request;
          Alcotest.test_case "request counts agree" `Quick
            test_request_counts_agree;
          Alcotest.test_case "overload state and p99 gauge" `Quick
            test_overload_state_and_p99;
          Alcotest.test_case "window p99 against the nearest-rank pass" `Quick
            test_window_p99_incremental;
        ] );
      ( "transport",
        [
          Alcotest.test_case "serve pump" `Quick test_pump;
          Alcotest.test_case "stop between requests" `Quick test_pump_stop;
          Alcotest.test_case "watchdog" `Quick test_watchdog;
          Alcotest.test_case "socket: sequential clients" `Quick
            test_socket_clients;
          Alcotest.test_case "socket: client hangs up mid-line" `Quick
            test_socket_hang_up;
          Alcotest.test_case "socket: a regular file is left alone" `Quick
            test_socket_not_a_socket;
        ] );
    ]
