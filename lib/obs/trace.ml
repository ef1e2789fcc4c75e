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
  Some { clock; write; next_id = 1; stack = []; spans = 0; events = 0 }

let enabled = Option.is_some

let spans_written = function None -> 0 | Some st -> st.spans
let events_written = function None -> 0 | Some st -> st.events

let json_of_value = function
  | Str s -> Json.Str s
  | Num v -> Json.Num v
  | Int i -> Json.Num (float_of_int i)
  | Bool b -> Json.Bool b

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

let emit st json = st.write (Json.to_string ~indent:false json)

let span_json sp ~stop ~error =
  let attrs =
    match sp.extra with
    | [] -> []
    | extra -> [ ("attrs", json_of_attrs (List.rev extra)) ]
  in
  let tail =
    ("start", Json.Num sp.start) :: ("end", Json.Num stop)
    :: (match error with None -> attrs | Some msg -> ("error", Json.Str msg) :: attrs)
  in
  Json.Obj
    (("type", Json.Str "span") :: ("name", Json.Str sp.name)
    :: ("id", Json.Num (float_of_int sp.id))
    :: (if sp.parent = 0 then tail
        else ("parent", Json.Num (float_of_int sp.parent)) :: tail))

let annotate sink attrs =
  match sink with
  | None -> ()
  | Some st -> (
      match st.stack with
      | [] -> ()
      | sp :: _ -> sp.extra <- List.rev_append attrs sp.extra)

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
      let close error =
        let stop = st.clock () in
        (* [f] is synchronous and nested spans pop themselves even on
           exceptions, so [sp] is necessarily the innermost open span
           here. *)
        st.stack <- (match st.stack with _ :: rest -> rest | [] -> []);
        st.spans <- st.spans + 1;
        emit st (span_json sp ~stop ~error)
      in
      (match f () with
      | v ->
          close None;
          v
      | exception exn ->
          close (Some (Printexc.to_string exn));
          raise exn)

let instant sink ?(attrs = []) name =
  match sink with
  | None -> ()
  | Some st ->
      let parent = match st.stack with [] -> 0 | p :: _ -> p.id in
      st.events <- st.events + 1;
      emit st
        (Json.Obj
           ([ ("type", Json.Str "event"); ("name", Json.Str name) ]
           @ (if parent = 0 then []
              else [ ("parent", Json.Num (float_of_int parent)) ])
           @ [ ("at", Json.Num (st.clock ())) ]
           @
           match attrs with
           | [] -> []
           | l -> [ ("attrs", json_of_attrs l) ]))
