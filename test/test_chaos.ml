(* Chaos tests: the crash-safety contract of the persistence journal
   and the daemon's request loop, exercised under seeded fault
   injection ({!Chaos}). Every fault stream is fixed-seed,
   so a failure here replays exactly.

   The headline property: after an unclean death (no close, journal
   torn at an arbitrary byte), a restarted server answers every
   request whose record survived with a response bit-identical to the
   clean run's — and merely re-solves the rest. Recovery never raises,
   never refuses to start. *)

module Journal = Stochserve.Journal
module Protocol = Stochserve.Protocol
module Server = Stochserve.Server
module J = Stochobs.Json

(* --------------------------- fixtures ------------------------------ *)

let with_temp f =
  (* [temp_file] creates the file; opening an empty journal is an
     empty recovery, which is exactly the fresh-start contract. *)
  let path = Filename.temp_file "stochserve-chaos" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* An entry with floats that need all 17 digits (and special values)
   to round-trip — the bit-identical recovery contract is only as
   strong as the codec under these. *)
let entry i =
  {
    Journal.key = Printf.sprintf "k%d|mu=%.17g" i (0.1 *. float_of_int i);
    solved =
      {
        Protocol.dist_name = Printf.sprintf "lognormal(%d)" i;
        tier = (if i mod 2 = 0 then "brute-force" else "mean-doubling");
        degraded = false;
        head =
          [|
            1.0 /. 3.0;
            Float.pi *. float_of_int i;
            0x1.fffffffffffffp-2;
            (if i mod 5 = 0 then Float.infinity else 1e-300);
          |];
        cost = (1.0 +. (0.1 *. float_of_int i)) /. 7.0;
        normalized = (if i mod 7 = 0 then Float.nan else 1.234567890123456789);
      };
  }

let entries n = List.init n entry

let write_journal path es =
  let j = Journal.open_ path in
  List.iter (Journal.append j) es;
  (* No [close]: the handle is abandoned the way a SIGKILL would leave
     it. Appends flush record-by-record, so the bytes are on disk. *)
  ignore (j : Journal.t)

(* Bit-identity via the record codec: two entries encode to the same
   bytes iff key and every float (incl. NaN payloadless equality via
   the "nan" token) match exactly. *)
let same_entry a b = String.equal (Journal.encode_record a) (Journal.encode_record b)

(* ----------------------- journal: clean restart -------------------- *)

let test_journal_roundtrip () =
  with_temp @@ fun path ->
  let es = entries 12 in
  write_journal path es;
  let r = Journal.recover path in
  Alcotest.(check int) "all records recovered" 12 r.Journal.recovered;
  Alcotest.(check int) "nothing skipped" 0 r.Journal.skipped;
  List.iter2
    (fun original recovered ->
      Alcotest.(check bool) "bit-identical" true (same_entry original recovered))
    es r.Journal.entries

let test_journal_torn_tail () =
  with_temp @@ fun path ->
  let es = entries 8 in
  write_journal path es;
  (* Simulate a crash mid-append: a prefix of a ninth record, no
     newline, lands at the tail. *)
  let torn = Journal.encode_record (entry 99) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.sub torn 0 (String.length torn - 7));
  close_out oc;
  let r = Journal.recover path in
  Alcotest.(check int) "intact records survive" 8 r.Journal.recovered;
  Alcotest.(check int) "torn tail skipped, not fatal" 1 r.Journal.skipped;
  List.iter2
    (fun original recovered ->
      Alcotest.(check bool) "bit-identical" true (same_entry original recovered))
    es r.Journal.entries

let test_journal_forged_checksum () =
  (* A record whose bytes were altered after the checksum was computed
     must be rejected even though it is structurally well-formed. *)
  let good = Journal.encode_record (entry 3) in
  let line = String.sub good 0 (String.length good - 1) in
  Alcotest.(check bool) "unaltered line decodes" true
    (Result.is_ok (Journal.decode_line line));
  let sp3 =
    (* Start of payload: after the third space. *)
    let i1 = String.index line ' ' in
    let i2 = String.index_from line (i1 + 1) ' ' in
    String.index_from line (i2 + 1) ' '
  in
  let forged = Bytes.of_string line in
  Bytes.set forged (sp3 + 2) 'X';
  (match Journal.decode_line (Bytes.to_string forged) with
  | Error msg ->
      Alcotest.(check string) "checksum catches it" "checksum mismatch" msg
  | Ok _ -> Alcotest.fail "altered payload must not decode");
  Alcotest.(check bool) "crc helper is stable" true
    (String.equal (Journal.crc32_hex "123456789") "cbf43926")

let test_journal_compaction () =
  with_temp @@ fun path ->
  let j = Journal.open_ ~compact_threshold:4 path in
  (* Append the same key over and over: the live set stays at 1 while
     the journal grows, so the dead-weight trigger must fire. *)
  let e = entry 1 in
  List.iter (fun _ -> Journal.append j e) (List.init 8 Fun.id);
  Alcotest.(check bool) "dead weight triggers" true
    (Journal.should_compact j ~live:1);
  Journal.compact j ~live:[ e ];
  Alcotest.(check bool) "trigger resets" false (Journal.should_compact j ~live:1);
  Journal.append j (entry 2);
  Journal.close j;
  let r = Journal.recover path in
  Alcotest.(check int) "snapshot + post-compaction appends" 2
    r.Journal.recovered;
  Alcotest.(check int) "no corruption introduced" 0 r.Journal.skipped

(* ---------------------- journal: fuzzed damage --------------------- *)

(* Seeded truncation/bit-flip fuzz: whatever the damage, recovery must
   (a) never raise, (b) recover only bit-identical records, (c) obey
   the damage model: a truncation keeps an intact prefix; a single bit
   flip costs at most two records (the flipped one, plus its neighbour
   when the flip lands on a newline). *)
let prop_recover_survives_damage =
  QCheck.Test.make ~count:200 ~name:"Journal.recover survives seeded damage"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      with_temp @@ fun path ->
      let total = 1 + (seed mod 9) in
      let es = entries total in
      write_journal path es;
      let chaos = Chaos.create ~seed () in
      let damage = Chaos.tear_file chaos path in
      let r =
        try Journal.recover path
        with e ->
          QCheck.Test.fail_reportf "recover raised %s" (Printexc.to_string e)
      in
      let originals = List.map Journal.encode_record es in
      let ok_bitwise =
        List.for_all
          (fun e -> List.mem (Journal.encode_record e) originals)
          r.Journal.entries
      in
      let ok_damage_model =
        match damage with
        | Chaos.Untouched -> r.Journal.recovered = total
        | Chaos.Truncated _ ->
            (* Intact prefix, at most the cut record skipped. *)
            r.Journal.recovered <= total
            && r.Journal.skipped <= 1
            && List.for_all2
                 (fun a b -> same_entry a b)
                 (List.filteri (fun i _ -> i < r.Journal.recovered) es)
                 r.Journal.entries
        | Chaos.Bit_flipped _ ->
            r.Journal.recovered >= total - 2
            && r.Journal.recovered < total
            && r.Journal.skipped >= 1
      in
      ok_bitwise && ok_damage_model)

(* ------------------- server: kill, tear, restart ------------------- *)

let quick_config =
  {
    Server.default_config with
    Server.budget = Robust.Solver.quick_budget;
    cache_capacity = 16;
  }

let solve_line i =
  Printf.sprintf
    {|{"kind":"solve","id":%d,"dist":{"family":"lognormal","mu":%g,"sigma":0.25}}|}
    i
    (1.0 +. (0.3 *. float_of_int i))

let respond server line =
  match Server.handle_line server line with
  | Some resp, _ -> (
      match J.of_string resp with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparseable response %s: %s" resp e)
  | None, _ -> Alcotest.fail "expected a response line"

let field name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

(* The payload fields that must survive a restart byte-for-byte. *)
let payload_fields = [ "key"; "dist"; "tier"; "sequence"; "cost"; "normalized" ]

let test_kill_tear_restart () =
  with_temp @@ fun path ->
  let lines = List.init 6 solve_line in
  (* Clean run: solve everything, journalling as we go; then abandon
     the server without close — the in-process stand-in for SIGKILL
     (appends are flushed per record, so the bytes are already out). *)
  let clean =
    let server = Server.create ~journal:(Journal.open_ path) quick_config in
    List.map (fun l -> respond server l) lines
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "clean solves are cold" true
        (field "cached" r = J.Bool false))
    clean;
  (* Crash damage: tear the journal at a seeded point. *)
  let chaos = Chaos.create ~seed:7 () in
  let _damage = Chaos.tear_file chaos path in
  (* Restart: recovery must not raise, and every surviving record must
     answer bit-identically from the warm cache. *)
  let journal = Journal.open_ path in
  let survivors = List.length (Journal.recovered journal) in
  Alcotest.(check bool) "tear drops at most a suffix worth" true
    (survivors <= 6);
  let server = Server.create ~journal quick_config in
  let warm = List.map (fun l -> respond server l) lines in
  let hits =
    List.fold_left
      (fun acc r -> if field "cached" r = J.Bool true then acc + 1 else acc)
      0 warm
  in
  Alcotest.(check int) "every surviving record is a warm hit" survivors hits;
  List.iter2
    (fun before after ->
      if field "cached" after = J.Bool true then
        List.iter
          (fun f ->
            Alcotest.(check string)
              ("restart-identical " ^ f)
              (J.to_string (field f before))
              (J.to_string (field f after)))
          payload_fields)
    clean warm;
  Server.close server

let test_restart_preserves_recency () =
  with_temp @@ fun path ->
  (* Cache capacity below the workload: the journal replay must leave
     the same survivors an uninterrupted LRU would hold. *)
  let config = { quick_config with Server.cache_capacity = 3 } in
  let lines = List.init 5 solve_line in
  let server = Server.create ~journal:(Journal.open_ path) config in
  List.iter (fun l -> ignore (respond server l)) lines;
  Server.close server;
  let server = Server.create ~journal:(Journal.open_ path) config in
  (* The three most recent solves must hit; the two the LRU evicted
     must not. Query newest-first so the misses (which re-insert and
     evict) cannot disturb entries still awaiting their check. *)
  List.iter
    (fun (i, l) ->
      let r = respond server l in
      let expect_hit = i >= 2 in
      Alcotest.(check bool)
        (Printf.sprintf "line %d cached=%b" i expect_hit)
        expect_hit
        (field "cached" r = J.Bool true))
    (List.rev (List.mapi (fun i l -> (i, l)) lines));
  Server.close server

(* --------------------- server: flaky transport --------------------- *)

let test_disconnect_survival () =
  let server = Server.create quick_config in
  let chaos = Chaos.create ~p_disconnect:0.25 ~seed:11 () in
  let script = ref (List.init 20 solve_line) in
  let recv () =
    match !script with
    | [] -> None
    | l :: rest ->
        script := rest;
        Some l
  in
  let recv = Chaos.wrap_recv chaos recv in
  let sent = ref 0 in
  let send = Chaos.wrap_send chaos (fun _ -> incr sent) in
  (* Mimic the transport's per-client containment: a chaos disconnect
     ends one client session; the daemon accepts the next. *)
  let sessions = ref 0 in
  while !script <> [] && !sessions < 200 do
    incr sessions;
    try
      ignore
        (Stochserve.Transport.pump ~stop:(fun () -> false)
           (Server.handle_line server) ~recv ~send)
    with Chaos.Injected _ -> ()
  done;
  Alcotest.(check (list string)) "all input eventually consumed" [] !script;
  Alcotest.(check bool) "faults actually fired" true
    (Chaos.count chaos "disconnect.recv" + Chaos.count chaos "disconnect.send"
    > 0);
  (* The server is still fully functional afterwards. *)
  let r = respond server {|{"kind":"stats","id":99}|} in
  Alcotest.(check bool) "stats ok after chaos" true (field "ok" r = J.Bool true)

let test_clock_jump_survival () =
  let chaos = Chaos.create ~p_clock_jump:0.4 ~seed:5 () in
  let clock = Chaos.clock chaos (Stochobs.Clock.fake ~step:0.001 ()) in
  let server =
    Server.create ~clock { quick_config with Server.deadline = Some 0.5 }
  in
  List.iter
    (fun i -> ignore (respond server (solve_line (i mod 3))))
    (List.init 30 Fun.id);
  Alcotest.(check bool) "jumps actually fired" true
    (Chaos.count chaos "clock.forward" + Chaos.count chaos "clock.backward" > 0);
  let r = respond server {|{"kind":"stats","id":1}|} in
  Alcotest.(check bool) "stats ok under jumping clock" true
    (field "ok" r = J.Bool true);
  (* The clamp keeps derived durations sane even when the clock
     stepped backwards mid-request. *)
  match field "uptime_seconds" (field "stats" r) with
  | J.Num u -> Alcotest.(check bool) "uptime non-negative" true (u >= 0.0)
  | _ -> Alcotest.fail "uptime_seconds must be a number"

let test_retry_discipline () =
  let chaos = Chaos.create ~p_transient:0.5 ~seed:3 () in
  let attempts = ref 0 in
  let f =
    Chaos.flaky chaos (fun () ->
        incr attempts;
        !attempts)
  in
  let v = Chaos.with_retries ~max:100 f in
  Alcotest.(check bool) "eventually succeeds" true (v >= 1);
  Alcotest.(check bool) "transients actually fired" true
    (Chaos.count chaos "transient" > 0);
  Alcotest.check_raises "last failure propagates" (Chaos.Injected "boom")
    (fun () ->
      ignore (Chaos.with_retries ~max:3 (fun () -> raise (Chaos.Injected "boom"))));
  Alcotest.check_raises "max below 1 rejected"
    (Invalid_argument "Chaos.with_retries: max must be >= 1") (fun () ->
      ignore (Chaos.with_retries ~max:0 (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Spot revocation mid-checkpoint: a revocation landing inside the    *)
(* snapshot window — even while the snapshot itself is being written  *)
(* — loses at most one checkpoint period of useful work. Every fully  *)
(* snapshotted period before the revocation survives.                 *)
(* ------------------------------------------------------------------ *)

module Spot_cost = Stochastic_core.Spot_cost

let ckpt_period = 1.0
let ckpt_cost = 0.05
let ckpt_restore = 0.05
let ckpt_stride = ckpt_period +. ckpt_cost

let spot_regime =
  Spot_cost.make_regime
    ~recovery:
      (Spot_cost.Snapshot
         {
           period = ckpt_period;
           snapshot_cost = ckpt_cost;
           restore_cost = ckpt_restore;
         })
    ~price_ratio:0.3 ~revocation_rate:0.05 ()

let m_hpc = Stochastic_core.Cost_model.neuro_hpc

(* Revocation [delta] hours into the (c+1)-th checkpoint window of an
   attempt resumed from [progress]: the durable gain is exactly the c
   completed snapshots, and the wall-clock loss is bounded by one
   stride (period + snapshot write). *)
let revoke_in_window ~progress ~total ~completed ~delta =
  let restore = if progress > 0.0 then ckpt_restore else 0.0 in
  let revocation = restore +. (float_of_int completed *. ckpt_stride) +. delta in
  let o =
    Spot_cost.slot_outcome spot_regime m_hpc ~tier:Spot_cost.Spot ~length:1e6
      ~progress ~total ~revocation
  in
  (o, revocation, restore)

let test_revocation_mid_checkpoint () =
  (* Mid-snapshot-write: 3 whole windows plus 1.02 h puts the clock
     0.02 h into the 4th snapshot write — that period is not yet
     durable and must be lost, but nothing else. *)
  let o, _, _ =
    revoke_in_window ~progress:2.0 ~total:20.0 ~completed:3 ~delta:1.02
  in
  Alcotest.(check bool) "revoked" true o.Spot_cost.revoked;
  Alcotest.(check (float 1e-9)) "durable = prior + 3 periods" 5.0
    o.Spot_cost.progress;
  (* Just after the write completes the period is durable. *)
  let o2, _, _ =
    revoke_in_window ~progress:2.0 ~total:20.0 ~completed:4 ~delta:1e-9
  in
  Alcotest.(check (float 1e-6)) "post-write snapshot survives" 6.0
    o2.Spot_cost.progress

let prop_revocation_loses_at_most_one_period =
  QCheck.Test.make ~count:300
    ~name:"revocation inside any snapshot window loses < one period"
    QCheck.(
      quad (int_range 0 3) (int_range 0 6)
        (float_range 0.0 (ckpt_stride -. 1e-9))
        (float_range 10.0 50.0))
    (fun (prior, completed, delta, total) ->
      let progress = float_of_int prior *. ckpt_period in
      let o, revocation, restore =
        revoke_in_window ~progress ~total ~completed ~delta
      in
      let gain = o.Spot_cost.progress -. progress in
      let wall_used = Float.max 0.0 (revocation -. restore) in
      (* Durable gain counts every completed window (unless the job
         needed fewer), and the un-snapshotted remainder is less than
         one period of useful work. *)
      let windows_needed =
        int_of_float (ceil ((total -. progress) /. ckpt_period)) - 1
      in
      let expect = min completed (max 0 windows_needed) in
      o.Spot_cost.finished
      || (abs_float (gain -. (float_of_int expect *. ckpt_period)) < 1e-9
         && wall_used -. (gain /. ckpt_period *. ckpt_stride) < ckpt_stride))

let () =
  Alcotest.run "chaos"
    [
      ( "journal",
        [
          Alcotest.test_case "clean roundtrip is bit-identical" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail skipped, prefix intact" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "checksum rejects forged payloads" `Quick
            test_journal_forged_checksum;
          Alcotest.test_case "compaction keeps only live records" `Quick
            test_journal_compaction;
          QCheck_alcotest.to_alcotest prop_recover_survives_damage;
        ] );
      ( "server",
        [
          Alcotest.test_case "kill, tear, restart" `Quick
            test_kill_tear_restart;
          Alcotest.test_case "restart preserves LRU recency" `Quick
            test_restart_preserves_recency;
          Alcotest.test_case "mid-request disconnects" `Quick
            test_disconnect_survival;
          Alcotest.test_case "clock jumps" `Quick test_clock_jump_survival;
          Alcotest.test_case "transient retry discipline" `Quick
            test_retry_discipline;
        ] );
      ( "spot-revocation",
        [
          Alcotest.test_case "mid-checkpoint revocation" `Quick
            test_revocation_mid_checkpoint;
          QCheck_alcotest.to_alcotest prop_revocation_loses_at_most_one_period;
        ] );
    ]
