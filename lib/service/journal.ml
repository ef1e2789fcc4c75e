(* Crash-safe persistence for the solved-strategy cache.

   The format is an append-only sequence of self-describing record
   lines:

     SJ1 <crc32:8 hex> <len:decimal> <payload>\n

   where <payload> is the compact JSON {"key": K, "solved": {...}}
   and <len> is its exact byte length. Every field a recovery needs to
   judge a record — magic, checksum, declared length — precedes the
   payload, so a torn tail (partial write at the moment of a crash)
   can never masquerade as a shorter valid record: it fails the length
   check or the checksum and is skipped and counted, never trusted and
   never fatal. *)

module J = Stochobs.Json

type entry = { key : string; solved : Protocol.solved }

(* ------------------------------ crc32 ------------------------------ *)

(* Standard reflected CRC-32 (IEEE 802.3 polynomial), table-driven.
   Detects every single-bit flip and all burst errors up to 32 bits —
   far beyond what a torn page write produces. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

(* ----------------------------- encoding ---------------------------- *)

let magic = "SJ1"

let encode_payload e =
  J.to_string ~indent:false
    (J.Obj
       [ ("key", J.Str e.key); ("solved", Protocol.solved_to_json e.solved) ])

let encode_record e =
  let payload = encode_payload e in
  Printf.sprintf "%s %s %d %s\n" magic (crc32_hex payload)
    (String.length payload) payload

let decode_payload payload =
  match J.of_string payload with
  | Error msg -> Error ("unparseable payload: " ^ msg)
  | Ok j -> (
      match J.member "key" j with
      | Some (J.Str key) -> (
          match J.member "solved" j with
          | Some solved_json -> (
              match Protocol.solved_of_json solved_json with
              | Ok solved -> Ok { key; solved }
              | Error msg -> Error msg)
          | None -> Error "record lacks \"solved\"")
      | _ -> Error "record lacks \"key\"")

(* Decode one line (without its terminating newline). The shape is
   validated outside-in: magic, then the checksum and declared length
   — both fixed-position — and only then the JSON payload. *)
let decode_line line =
  let fail msg = Error msg in
  match String.index_opt line ' ' with
  | None -> fail "no field separator"
  | Some sp1 ->
      if String.sub line 0 sp1 <> magic then fail "bad magic"
      else (
        match String.index_from_opt line (sp1 + 1) ' ' with
        | None -> fail "missing checksum field"
        | Some sp2 -> (
            let crc_text = String.sub line (sp1 + 1) (sp2 - sp1 - 1) in
            match String.index_from_opt line (sp2 + 1) ' ' with
            | None -> fail "missing length field"
            | Some sp3 -> (
                let len_text = String.sub line (sp2 + 1) (sp3 - sp2 - 1) in
                match int_of_string_opt len_text with
                | None -> fail "unreadable length"
                | Some len ->
                    let have = String.length line - sp3 - 1 in
                    if have <> len then
                      fail
                        (Printf.sprintf "torn record: %d of %d payload bytes"
                           have len)
                    else
                      let payload = String.sub line (sp3 + 1) len in
                      if not (String.equal (crc32_hex payload) crc_text) then
                        fail "checksum mismatch"
                      else decode_payload payload)))

(* ----------------------------- recovery ---------------------------- *)

type recovery = {
  entries : entry list;
  recovered : int;
  skipped : int;
  bytes : int;
}

let empty_recovery = { entries = []; recovered = 0; skipped = 0; bytes = 0 }

let recover path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> empty_recovery
  | content ->
      let bytes = String.length content in
      (* Split on newlines by hand so a final unterminated chunk — the
         classic torn tail — is still presented to the decoder: if it
         happens to be a complete record that merely lost its newline,
         it is recovered; otherwise it is counted corrupt. *)
      let chunks = String.split_on_char '\n' content in
      let entries, recovered, skipped =
        List.fold_left
          (fun (entries, recovered, skipped) chunk ->
            if String.length chunk = 0 then (entries, recovered, skipped)
            else
              match decode_line chunk with
              | Ok e -> (e :: entries, recovered + 1, skipped)
              | Error _ -> (entries, recovered, skipped + 1))
          ([], 0, 0) chunks
      in
      { entries = List.rev entries; recovered; skipped; bytes }

(* ------------------------------ handle ----------------------------- *)

type stats = {
  appended : int;
  recovered_records : int;
  skipped_corrupt : int;
  compactions : int;
}

type t = {
  path : string;
  threshold : int;
  mutable oc : out_channel;
  mutable appended : int;
  mutable since_compact : int;
  mutable compactions : int;
  recovery : recovery;
}

let default_compact_threshold = 256

let open_ ?(compact_threshold = default_compact_threshold) path =
  if compact_threshold < 1 then
    invalid_arg
      (Printf.sprintf "Journal.open_: compact threshold must be >= 1, got %d"
         compact_threshold);
  let recovery = recover path in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  {
    path;
    threshold = compact_threshold;
    oc;
    appended = 0;
    since_compact = 0;
    compactions = 0;
    recovery;
  }

let recovered t = t.recovery.entries

let stats t =
  {
    appended = t.appended;
    recovered_records = t.recovery.recovered;
    skipped_corrupt = t.recovery.skipped;
    compactions = t.compactions;
  }

let append t e =
  output_string t.oc (encode_record e);
  (* One flush per record: the OS then owns the bytes, so a SIGKILL
     loses at most the record being written — exactly the torn tail
     recovery tolerates. *)
  flush t.oc;
  t.appended <- t.appended + 1;
  t.since_compact <- t.since_compact + 1

let flush t = flush t.oc

(* Compaction pays off only when the journal carries dead weight:
   superseded duplicates and entries the LRU has already evicted. Both
   show up as appended records in excess of the live set. *)
let should_compact t ~live =
  t.since_compact >= t.threshold && t.since_compact >= 2 * live

let compact t ~live =
  let tmp = t.path ^ ".compact" in
  let oc = open_out_gen [ Open_trunc; Open_creat; Open_wronly; Open_binary ] 0o644 tmp in
  (match
     List.iter (fun e -> output_string oc (encode_record e)) live;
     Stdlib.flush oc
   with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e);
  (* The snapshot is complete on disk before the rename makes it the
     journal; a crash in between leaves the old journal untouched. *)
  close_out t.oc;
  Sys.rename tmp t.path;
  t.oc <- open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path;
  t.since_compact <- 0;
  t.compactions <- t.compactions + 1

let close t = close_out t.oc
