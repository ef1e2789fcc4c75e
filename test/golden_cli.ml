(* Byte-for-byte golden checks of a command-line tool: run it, capture
   its exit code, stdout and stderr, and compare all three with the
   recorded ones. Paths that differ from run to run (temp files) are
   replaced by fixed placeholders before the comparison. *)

type run = { code : int; out : string; err : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* Every occurrence of [sub] in [s] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  if n = 0 then s
  else begin
    go 0;
    Buffer.contents b
  end

(* [subst] pairs (path, placeholder). *)
let run ?(subst = []) exe args =
  let out = Filename.temp_file "golden" ".out" in
  let err = Filename.temp_file "golden" ".err" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let clean s =
    List.fold_left (fun s (sub, by) -> replace_all ~sub ~by s) s subst
  in
  let r = { code; out = clean (read_file out); err = clean (read_file err) } in
  Sys.remove out;
  Sys.remove err;
  r

let check name ~code ?(out = "") ?(err = "") r =
  Alcotest.(check int) (name ^ ": exit code") code r.code;
  Alcotest.(check string) (name ^ ": stdout") out r.out;
  Alcotest.(check string) (name ^ ": stderr") err r.err

(* A fresh empty directory under the temp dir. *)
let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let remove_tree dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir
