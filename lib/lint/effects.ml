(* The effect lattice stochdomcheck infers for every top-level
   function, plus the builtin tables that seed it.

   A signature answers the questions the multicore refactor cares
   about: does this function touch *global* mutable state (reads_global
   / writes_global, tracked per-global in Domcheck), does it mutate or
   read mutable values handed to it (reads_param / writes_param —
   harmless under Domain.spawn when each domain gets fresh arguments,
   hazardous when a shared value is passed in), does it perform
   ambient IO, and does it draw from RNG state that was not threaded
   as a parameter?

   Everything is a may-analysis: [true] means "possibly", [false]
   means "the analysis saw no path". Join is pointwise disjunction, so
   the fixpoint over the call graph is monotone and terminates. *)

type t = {
  reads_global : bool;
  writes_global : bool;
  reads_param : bool;
  writes_param : bool;
  io : bool;
  rng : bool;
}

let pure =
  {
    reads_global = false;
    writes_global = false;
    reads_param = false;
    writes_param = false;
    io = false;
    rng = false;
  }

let join a b =
  {
    reads_global = a.reads_global || b.reads_global;
    writes_global = a.writes_global || b.writes_global;
    reads_param = a.reads_param || b.reads_param;
    writes_param = a.writes_param || b.writes_param;
    io = a.io || b.io;
    rng = a.rng || b.rng;
  }

let equal (a : t) (b : t) = a = b

let to_string t =
  let tags =
    List.filter_map
      (fun (on, tag) -> if on then Some tag else None)
      [
        (t.writes_global, "writes-global");
        (t.reads_global, "reads-global");
        (t.writes_param, "writes-param");
        (t.reads_param, "reads-param");
        (t.io, "io");
        (t.rng, "ambient-rng");
      ]
  in
  match tags with [] -> "pure" | _ -> String.concat "+" tags

(* ------------------------------------------------------------------ *)
(* Builtin classification                                              *)
(* ------------------------------------------------------------------ *)

(* How a call to a function we will never see a .cmt for behaves.
   [Mutator] / [Reader] act on their first positional argument
   (exactly the stdlib container convention); [Io] and [Rng] are
   ambient; [Opaque] is assumed pure — stochdomcheck is a worklist
   generator, not a verifier, and unknown externals default clean. *)
type builtin = Mutator | Reader | Io | Rng | Opaque

(* stochlint: allow GLOBAL_MUT_STATE — filled once at module init, read-only afterwards *)
let table : (string, builtin) Hashtbl.t = Hashtbl.create 256

let register kind names = List.iter (fun n -> Hashtbl.replace table n kind) names

let () =
  register Mutator
    [
      "Stdlib.:=";
      "Stdlib.incr";
      "Stdlib.decr";
      "Stdlib.Hashtbl.add";
      "Stdlib.Hashtbl.replace";
      "Stdlib.Hashtbl.remove";
      "Stdlib.Hashtbl.reset";
      "Stdlib.Hashtbl.clear";
      "Stdlib.Hashtbl.filter_map_inplace";
      "Stdlib.Buffer.add_string";
      "Stdlib.Buffer.add_char";
      "Stdlib.Buffer.add_bytes";
      "Stdlib.Buffer.add_substring";
      "Stdlib.Buffer.add_subbytes";
      "Stdlib.Buffer.add_buffer";
      "Stdlib.Buffer.add_utf_8_uchar";
      "Stdlib.Buffer.clear";
      "Stdlib.Buffer.reset";
      "Stdlib.Buffer.truncate";
      "Stdlib.Array.set";
      "Stdlib.Array.unsafe_set";
      "Stdlib.Array.fill";
      "Stdlib.Array.blit";
      "Stdlib.Array.sort";
      "Stdlib.Array.stable_sort";
      "Stdlib.Array.fast_sort";
      "Stdlib.Bytes.set";
      "Stdlib.Bytes.unsafe_set";
      "Stdlib.Bytes.fill";
      "Stdlib.Bytes.blit";
      "Stdlib.Bytes.blit_string";
      "Stdlib.Queue.push";
      "Stdlib.Queue.add";
      "Stdlib.Queue.pop";
      "Stdlib.Queue.take";
      "Stdlib.Queue.clear";
      "Stdlib.Queue.transfer";
      "Stdlib.Stack.push";
      "Stdlib.Stack.pop";
      "Stdlib.Stack.clear";
      "Stdlib.Atomic.set";
      "Stdlib.Atomic.exchange";
      "Stdlib.Atomic.compare_and_set";
      "Stdlib.Atomic.fetch_and_add";
      "Stdlib.Atomic.incr";
      "Stdlib.Atomic.decr";
    ];
  register Reader
    [
      "Stdlib.!";
      "Stdlib.Hashtbl.find";
      "Stdlib.Hashtbl.find_opt";
      "Stdlib.Hashtbl.find_all";
      "Stdlib.Hashtbl.mem";
      "Stdlib.Hashtbl.length";
      "Stdlib.Hashtbl.iter";
      "Stdlib.Hashtbl.fold";
      "Stdlib.Hashtbl.copy";
      "Stdlib.Hashtbl.to_seq";
      "Stdlib.Hashtbl.stats";
      "Stdlib.Buffer.contents";
      "Stdlib.Buffer.to_bytes";
      "Stdlib.Buffer.sub";
      "Stdlib.Buffer.nth";
      "Stdlib.Buffer.length";
      "Stdlib.Array.get";
      "Stdlib.Array.unsafe_get";
      "Stdlib.Array.length";
      "Stdlib.Array.copy";
      "Stdlib.Array.sub";
      "Stdlib.Array.to_list";
      "Stdlib.Array.iter";
      "Stdlib.Array.iteri";
      "Stdlib.Array.map";
      "Stdlib.Array.mapi";
      "Stdlib.Array.fold_left";
      "Stdlib.Array.fold_right";
      "Stdlib.Array.exists";
      "Stdlib.Array.for_all";
      "Stdlib.Array.mem";
      "Stdlib.Array.to_seq";
      "Stdlib.Bytes.get";
      "Stdlib.Bytes.unsafe_get";
      "Stdlib.Bytes.length";
      "Stdlib.Bytes.to_string";
      "Stdlib.Bytes.sub";
      "Stdlib.Queue.peek";
      "Stdlib.Queue.top";
      "Stdlib.Queue.is_empty";
      "Stdlib.Queue.length";
      "Stdlib.Queue.iter";
      "Stdlib.Queue.fold";
      "Stdlib.Stack.top";
      "Stdlib.Stack.is_empty";
      "Stdlib.Stack.length";
      "Stdlib.Atomic.get";
    ];
  register Io
    [
      "Stdlib.print_string";
      "Stdlib.print_endline";
      "Stdlib.print_newline";
      "Stdlib.print_int";
      "Stdlib.print_float";
      "Stdlib.print_char";
      "Stdlib.print_bytes";
      "Stdlib.prerr_string";
      "Stdlib.prerr_endline";
      "Stdlib.prerr_newline";
      "Stdlib.read_line";
      "Stdlib.read_int";
      "Stdlib.Printf.printf";
      "Stdlib.Printf.eprintf";
      "Stdlib.Format.printf";
      "Stdlib.Format.eprintf";
      "Stdlib.Format.print_string";
      "Stdlib.Format.print_newline";
      "Stdlib.Format.print_flush";
      "Stdlib.stdout";
      "Stdlib.stderr";
      "Stdlib.stdin";
      "Stdlib.open_in";
      "Stdlib.open_in_bin";
      "Stdlib.open_out";
      "Stdlib.open_out_bin";
      "Stdlib.open_out_gen";
      "Stdlib.close_in";
      "Stdlib.close_in_noerr";
      "Stdlib.close_out";
      "Stdlib.close_out_noerr";
      "Stdlib.flush";
      "Stdlib.flush_all";
      "Stdlib.input_line";
      "Stdlib.input_char";
      "Stdlib.input_byte";
      "Stdlib.really_input_string";
      "Stdlib.in_channel_length";
      "Stdlib.out_channel_length";
      "Stdlib.output_string";
      "Stdlib.output_bytes";
      "Stdlib.output_char";
      "Stdlib.output_byte";
      "Stdlib.output_substring";
      "Stdlib.seek_in";
      "Stdlib.seek_out";
      "Stdlib.exit";
      "Stdlib.at_exit";
      "Stdlib.Sys.command";
      "Stdlib.Sys.getenv";
      "Stdlib.Sys.getenv_opt";
      "Stdlib.Sys.argv";
      "Stdlib.Sys.readdir";
      "Stdlib.Sys.remove";
      "Stdlib.Sys.rename";
      "Stdlib.Sys.file_exists";
      "Stdlib.Sys.is_directory";
      "Stdlib.Sys.getcwd";
      "Stdlib.Sys.chdir";
      "Stdlib.Sys.time";
      "Stdlib.Filename.temp_file";
      "Stdlib.Filename.open_temp_file";
    ]

(* Prefix families: everything under these module paths carries the
   effect, so new stdlib additions do not silently slip through. *)
let io_prefixes = [ "Unix."; "Stdlib.Printf.fprintf"; "Stdlib.Format.fprintf" ]
let rng_prefixes = [ "Stdlib.Random." ]

let classify path =
  match Hashtbl.find_opt table path with
  | Some kind -> kind
  | None ->
      let under prefix = String.starts_with ~prefix path in
      if List.exists under rng_prefixes then Rng
      else if List.exists under io_prefixes then Io
      else Opaque

(* Type constructors whose values are mutable regardless of any local
   type declaration — the builtin containers. Keys are canonical type
   paths as they appear in .cmt type expressions. *)
let mutable_type_heads =
  [
    "Stdlib.ref";
    "ref";
    "array";
    "bytes";
    "Stdlib.Hashtbl.t";
    "Stdlib.Buffer.t";
    "Stdlib.Queue.t";
    "Stdlib.Stack.t";
    "Stdlib.Atomic.t";
    "Stdlib.Weak.t";
    "Stdlib.Ephemeron.K1.t";
  ]

(* Canonical type paths that *are* RNG state: a global of one of these
   types is ambient randomness even though every draw threads it
   explicitly at the call site. *)
let rng_type_heads = [ "Randomness__Rng.t"; "Randomness.Rng.t" ]
