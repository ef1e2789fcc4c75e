(* Deterministic fault injection for the daemon's crash-safety tests.

   Every fault is drawn from a seeded xoshiro stream, so a chaos run
   is exactly reproducible from its seed: the same requests hit the
   same disconnects, the same journal bytes get torn, the same clock
   readings jump. That determinism is what lets test_chaos assert
   bit-identical recovery instead of merely "it did not crash". *)

module Rng = Randomness.Rng

exception Injected of string

type t = {
  rng : Rng.t;
  p_disconnect : float;
  p_clock_jump : float;
  p_transient : float;
  counts : (string, int) Hashtbl.t;
}

let create ?(p_disconnect = 0.0) ?(p_clock_jump = 0.0) ?(p_transient = 0.0)
    ~seed () =
  let check name p =
    if not (Float.is_finite p) || p < 0.0 || p > 1.0 then
      invalid_arg
        (Printf.sprintf "Chaos.create: %s must be in [0, 1], got %g" name p)
  in
  check "p_disconnect" p_disconnect;
  check "p_clock_jump" p_clock_jump;
  check "p_transient" p_transient;
  {
    rng = Rng.create ~seed ();
    p_disconnect;
    p_clock_jump;
    p_transient;
    counts = Hashtbl.create 8;
  }

let note t kind =
  let n = Option.value (Hashtbl.find_opt t.counts kind) ~default:0 in
  Hashtbl.replace t.counts kind (n + 1)

let count t kind = Option.value (Hashtbl.find_opt t.counts kind) ~default:0

let fire t p = p > 0.0 && Rng.float t.rng < p

(* --------------------------- transport ----------------------------- *)

let wrap_recv t recv () =
  if fire t t.p_disconnect then begin
    note t "disconnect.recv";
    None
  end
  else recv ()

let wrap_send t send line =
  if fire t t.p_disconnect then begin
    note t "disconnect.send";
    raise (Injected "client hung up mid-response (EPIPE)")
  end
  else send line

(* ----------------------------- clock ------------------------------- *)

(* A clock whose readings occasionally leap: forward by up to an hour
   (NTP step, VM migration) or — every third jump — backwards by up to
   a second (the kind of small regression a non-monotonic source
   produces). Readings never go below zero. The server must clamp
   per-request elapsed times, not trust the difference. *)
let clock t base =
  let offset = ref 0.0 in
  fun () ->
    if fire t t.p_clock_jump then begin
      let jump =
        if Rng.int t.rng 3 = 0 then -.Rng.uniform t.rng 0.0 1.0
        else Rng.uniform t.rng 1.0 3600.0
      in
      note t (if jump < 0.0 then "clock.backward" else "clock.forward");
      offset := !offset +. jump
    end;
    Float.max 0.0 (base () +. !offset)

(* ----------------------- transient failures ------------------------ *)

let flaky t f () =
  if fire t t.p_transient then begin
    note t "transient";
    raise (Injected "transient failure (EINTR)")
  end
  else f ()

let with_retries ~max f =
  if max < 1 then invalid_arg "Chaos.with_retries: max must be >= 1";
  let rec go attempt =
    match f () with
    | v -> v
    | exception Injected _ when attempt < max -> go (attempt + 1)
  in
  go 1

(* -------------------------- file damage ---------------------------- *)

type damage = Untouched | Truncated of int | Bit_flipped of int

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> Some content
  | exception Sys_error _ -> None

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let truncate_file t path =
  match read_file path with
  | None -> Untouched
  | Some content when String.length content = 0 -> Untouched
  | Some content ->
      let cut = Rng.int t.rng (String.length content) in
      write_file path (String.sub content 0 cut);
      note t "tear.truncate";
      Truncated cut

let flip_bit t path =
  match read_file path with
  | None -> Untouched
  | Some content when String.length content = 0 -> Untouched
  | Some content ->
      let pos = Rng.int t.rng (String.length content) in
      let bit = Rng.int t.rng 8 in
      let bytes = Bytes.of_string content in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
      write_file path (Bytes.to_string bytes);
      note t "tear.flip";
      Bit_flipped pos

let tear_file t path =
  if Rng.int t.rng 2 = 0 then truncate_file t path else flip_bit t path
