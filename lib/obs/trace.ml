type value = Str of string | Num of float | Int of int | Bool of bool

type attr = string * value

type open_span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  mutable extra : attr list; (* newest first *)
}

type state = {
  clock : Clock.t;
  write : Writer.t;
  line : Buffer.t; (* the record being written *)
  mutable next_id : int;
  mutable stack : open_span list; (* innermost first *)
  mutable spans : int;
  mutable events : int;
}

(* [None] is the no-op sink: every operation reduces to one match on
   the option, so instrumented hot paths cost a branch when tracing is
   off. *)
type sink = state option

let null : sink = None

let make ?(clock = Clock.cpu) write : sink =
  Some
    { clock; write; line = Buffer.create 256; next_id = 1; stack = []; spans = 0;
      events = 0 }

let spans_written = function None -> 0 | Some st -> st.spans

(* Records are written straight into [st.line], byte for byte what
   [Json.to_string ~indent:false] writes for the same object (pinned in
   test_obs against the tree it used to build): ["key": value] pairs
   after ["{"] or [","]. *)
let add_key buf k =
  Json.add_str buf k;
  Buffer.add_string buf ": "

let add_value buf = function
  | Str s -> Json.add_str buf s
  | Num v -> Json.add_num buf v
  | Int i -> Json.add_num buf (float_of_int i)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let add_attr buf ~first (k, v) =
  if not first then Buffer.add_char buf ',';
  add_key buf k;
  add_value buf v

(* Attributes newest first, as a span keeps them, written oldest
   first: the rest of the list, then [a]. [true] when nothing was
   written. *)
let rec add_attrs_rev buf = function
  | [] -> true
  | a :: rest ->
      let first = add_attrs_rev buf rest in
      add_attr buf ~first a;
      false

let add_attrs buf newest_first =
  if newest_first <> [] then begin
    Buffer.add_string buf ",\"attrs\": {";
    ignore (add_attrs_rev buf newest_first);
    Buffer.add_char buf '}'
  end

(* [{"type": kind,"name": name] and, for a nested record, its parent. *)
let start_record st ~kind ~name =
  let buf = st.line in
  Buffer.clear buf;
  Buffer.add_string buf "{\"type\": ";
  Json.add_str buf kind;
  Buffer.add_string buf ",\"name\": ";
  Json.add_str buf name;
  buf

let add_parent buf parent =
  if parent <> 0 then begin
    Buffer.add_string buf ",\"parent\": ";
    Json.add_num buf (float_of_int parent)
  end

let finish_record st =
  Buffer.add_char st.line '}';
  st.write (Buffer.contents st.line)

let emit_span st sp ~stop ~error =
  let buf = start_record st ~kind:"span" ~name:sp.name in
  Buffer.add_string buf ",\"id\": ";
  Json.add_num buf (float_of_int sp.id);
  add_parent buf sp.parent;
  Buffer.add_string buf ",\"start\": ";
  Json.add_num buf sp.start;
  Buffer.add_string buf ",\"end\": ";
  Json.add_num buf stop;
  (match error with
  | None -> ()
  | Some msg ->
      Buffer.add_string buf ",\"error\": ";
      Json.add_str buf msg);
  add_attrs buf sp.extra;
  finish_record st

let annotate sink attrs =
  match sink with
  | None -> ()
  | Some st -> (
      match st.stack with
      | [] -> ()
      | sp :: _ -> sp.extra <- List.rev_append attrs sp.extra)

let close_span st sp error =
  let stop = st.clock () in
  (* [f] is synchronous and nested spans pop themselves even on
     exceptions, so [sp] is necessarily the innermost open span
     here. *)
  st.stack <- (match st.stack with _ :: rest -> rest | [] -> []);
  st.spans <- st.spans + 1;
  emit_span st sp ~stop ~error

let with_span sink ?(attrs = []) name f =
  match sink with
  | None -> f ()
  | Some st ->
      let id = st.next_id in
      st.next_id <- id + 1;
      let parent = match st.stack with [] -> 0 | p :: _ -> p.id in
      let sp =
        { id; parent; name; start = st.clock (); extra = List.rev attrs }
      in
      st.stack <- sp :: st.stack;
      (match f () with
      | v ->
          close_span st sp None;
          v
      | exception exn ->
          close_span st sp (Some (Printexc.to_string exn));
          raise exn)

let instant sink ?(attrs = []) name =
  match sink with
  | None -> ()
  | Some st ->
      let parent = match st.stack with [] -> 0 | p :: _ -> p.id in
      st.events <- st.events + 1;
      let at = st.clock () in
      let buf = start_record st ~kind:"event" ~name in
      add_parent buf parent;
      Buffer.add_string buf ",\"at\": ";
      Json.add_num buf at;
      add_attrs buf (List.rev attrs);
      finish_record st
