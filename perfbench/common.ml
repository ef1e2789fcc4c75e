(* Shared plumbing of the benchmark: the clock, nearest-rank statistics,
   the host probe, and the per-op outcome every workload reports. *)

module Stats = Numerics.Stats

(* Monotonic wall clock in seconds. Every timing in the benchmark and
   every span of its trace sink reads this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let quantile xs p =
  if Array.length xs = 0 then nan else Stats.quantile_nearest_rank xs p

let median xs = quantile xs 0.5

let geometric_mean xs =
  if Array.length xs = 0 then nan
  else exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

(* A tail percentile is reported only where at least ten samples lie
   beyond it. *)
let tail_measurable ~n p = float_of_int n *. (1.0 -. p) >= 10.0

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* The host probe: a fixed integer loop that touches no memory and
   allocates nothing. It is timed at the start and at the end of every
   run; when a later change moves the program's timings, a moved probe
   says the host drifted, a steady probe says the program did. *)
let probe_once () =
  let h = ref 0x2545F491 in
  for i = 1 to 20_000_000 do
    h := ((!h lxor (!h lsr 13)) * 0x5bd1e995) + i
  done;
  !h

let probe_ms () =
  let dt, h = time probe_once in
  (* Keeps the loop's result live. *)
  if h = 0 then prerr_endline "probe hash is zero";
  dt *. 1e3

(* The memory probe: two fixed sums over a fresh 64 MiB array. On a
   shared host the arithmetic probe can hold still while a neighbour
   saturates the memory system; this one moves with it, and so do the
   workloads. It only runs in traced runs, which report no peak RSS. *)
let mem_probe_ms () =
  let a = Array.make (8 * 1024 * 1024) 1 in
  let dt, s =
    time (fun () ->
        let s = ref 0 in
        for _ = 1 to 2 do
          Array.iter (fun x -> s := !s + x) a
        done;
        !s)
  in
  if s = 0 then prerr_endline "memory probe sum is zero";
  dt *. 1e3

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception _ -> nan)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* What one op reports back to the harness. [exact] is the canonical
   rendering of every output of the op that must not depend on timing:
   the determinism gate compares it across replicas and runs. *)
type outcome = {
  latency : float;  (** Seconds spent in the op's calls. *)
  ok : bool;  (** The op passed its output checks. *)
  cls : string;  (** Latency class, e.g. ["hit"] or ["table2"]. *)
  exact : string;
  norm_cost : float;  (** Cost / E^o of the answer; nan when none. *)
  spot_ratio : float;  (** spot_cost / on_demand_cost; nan when none. *)
  plans : int;  (** Spot plans the op scored. *)
}

(* An op that failed before producing an answer. *)
let failed ~latency ~cls exact =
  { latency; ok = false; cls; exact; norm_cost = nan; spot_ratio = nan; plans = 0 }

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

(* Digest of the exact bits of a float array. *)
let digest_bits xs =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map bits xs))))
