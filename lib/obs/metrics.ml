type t = {
  mutable on : bool;
  mutable items : item list; (* registration order, newest first *)
}

and item = Icounter of counter | Igauge of gauge | Ihistogram of histogram

and counter = { c_name : string; c_reg : t; mutable c_count : int }

and gauge = {
  g_name : string;
  g_reg : t;
  mutable g_last : float;
  mutable g_max : float;
  mutable g_seen : bool;
}

and histogram = {
  h_name : string;
  h_reg : t;
  h_upper : float array; (* strictly increasing finite bucket bounds *)
  h_counts : int array; (* length h_upper + 1; last = overflow *)
  mutable h_total : int;
  (* Kahan-compensated sum of observations (mirrors Numerics.Kahan,
     reimplemented locally so this library stays a leaf). *)
  mutable h_sum : float;
  mutable h_comp : float;
}

let create ?(enabled = false) () = { on = enabled; items = [] }

(* The process-global registry every layer instruments against. Off by
   default: until the CLI's --profile (or a test) flips it on, every
   probe in the numerics/solver/scheduler hot paths is one load and
   one branch. *)
(* Nothing updates a registry from two domains, so it stays a plain
   record with no lock. *)
(* stochlint: allow GLOBAL_MUT_STATE — the one deliberate process-global registry *)
let default = create ()

let set_enabled t on = t.on <- on

let item_name = function
  | Icounter c -> c.c_name
  | Igauge g -> g.g_name
  | Ihistogram h -> h.h_name

let find t name =
  List.find_opt (fun i -> item_name i = name) t.items

let check_name name =
  if name = "" then invalid_arg "Metrics: empty instrument name"

let counter t name =
  check_name name;
  match find t name with
  | Some (Icounter c) -> c
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %s is registered with another kind"
           name)
  | None ->
      let c = { c_name = name; c_reg = t; c_count = 0 } in
      t.items <- Icounter c :: t.items;
      c

let gauge t name =
  check_name name;
  match find t name with
  | Some (Igauge g) -> g
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Metrics.gauge: %s is registered with another kind"
           name)
  | None ->
      let g =
        { g_name = name; g_reg = t; g_last = 0.0; g_max = 0.0; g_seen = false }
      in
      t.items <- Igauge g :: t.items;
      g

let histogram t name ~buckets =
  check_name name;
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: needs at least one bucket bound";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Metrics.histogram: bucket bounds must be finite";
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must strictly increase")
    buckets;
  match find t name with
  | Some (Ihistogram h) -> h
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Metrics.histogram: %s is registered with another kind" name)
  | None ->
      let h =
        {
          h_name = name;
          h_reg = t;
          h_upper = Array.copy buckets;
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_total = 0;
          h_sum = 0.0;
          h_comp = 0.0;
        }
      in
      t.items <- Ihistogram h :: t.items;
      h

(* Saturating add: a counter that would wrap pins at max_int instead
   of going negative (overflow safety for eternal processes). *)
let sat_add a b =
  if b >= 0 then if a > max_int - b then max_int else a + b
  else a (* negative increments are silently ignored *)

let add c n = if c.c_reg.on then c.c_count <- sat_add c.c_count n
let incr c = add c 1
let count c = c.c_count

let set g v =
  if g.g_reg.on then begin
    g.g_last <- v;
    if (not g.g_seen) || v > g.g_max then g.g_max <- v;
    g.g_seen <- true
  end

let observe h v =
  if h.h_reg.on then begin
    (* Kahan step *)
    let y = v -. h.h_comp in
    let s = h.h_sum +. y in
    h.h_comp <- s -. h.h_sum -. y;
    h.h_sum <- s;
    h.h_total <- sat_add h.h_total 1;
    let n = Array.length h.h_upper in
    let rec place i =
      if i >= n then h.h_counts.(n) <- sat_add h.h_counts.(n) 1
      else if v <= h.h_upper.(i) then
        h.h_counts.(i) <- sat_add h.h_counts.(i) 1
      else place (i + 1)
    in
    place 0
  end

(* ------------------------------ snapshots ------------------------- *)

type value =
  | Counter_v of int
  | Gauge_v of { last : float; max : float }
  | Histogram_v of {
      upper : float array;
      counts : int array;
      total : int;
      sum : float;
    }

type snapshot = (string * value) list

let snapshot t =
  t.items
  |> List.filter_map (fun item ->
         match item with
         | Icounter c -> Some (c.c_name, Counter_v c.c_count)
         (* A gauge nobody has set yet has no reading to report — it
            would otherwise surface as a spurious 0 in every diff. *)
         | Igauge g when not g.g_seen -> None
         | Igauge g ->
             Some (g.g_name, Gauge_v { last = g.g_last; max = g.g_max })
         | Ihistogram h ->
             Some
               ( h.h_name,
                 Histogram_v
                   {
                     upper = Array.copy h.h_upper;
                     counts = Array.copy h.h_counts;
                     total = h.h_total;
                     sum = h.h_sum;
                   } ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sat_sub a b = if a >= b then a - b else 0

let diff ~before ~after =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Counter_v n, Some (Counter_v m) -> (name, Counter_v (sat_sub n m))
      | Histogram_v h, Some (Histogram_v g)
        when Array.length h.counts = Array.length g.counts ->
          ( name,
            Histogram_v
              {
                h with
                counts = Array.mapi (fun i c -> sat_sub c g.counts.(i)) h.counts;
                total = sat_sub h.total g.total;
                sum = h.sum -. g.sum;
              } )
      (* Gauges are instantaneous, not cumulative: the later reading
         stands. Mismatched or newly registered instruments also pass
         through unchanged. *)
      | v, _ -> (name, v))
    after

let zero = function
  | Counter_v n -> n = 0
  | Gauge_v _ -> false
  | Histogram_v h -> h.total = 0

let value_to_json = function
  | Counter_v n -> Json.Num (float_of_int n)
  | Gauge_v { last; max } ->
      Json.Obj [ ("last", Json.Num last); ("max", Json.Num max) ]
  | Histogram_v { upper; counts; total; sum } ->
      Json.Obj
        [
          ("buckets", Json.Arr (Array.to_list (Array.map (fun b -> Json.Num b) upper)));
          ("counts",
           Json.Arr
             (Array.to_list
                (Array.map (fun c -> Json.Num (float_of_int c)) counts)));
          ("total", Json.Num (float_of_int total));
          ("sum", Json.Num sum);
        ]

let to_json snap =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

(* ------------------------ Prometheus exposition ------------------- *)

(* The repo's [layer.component.metric] names carry dots, which the
   Prometheus metric-name grammar (letters, digits, '_' and ':', no
   leading digit) forbids; every illegal byte maps to '_' and a
   leading digit gets a '_' prefix. *)
let prometheus_name name =
  let ok i c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | '0' .. '9' -> i > 0
    | _ -> false
  in
  let b = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      if ok (Buffer.length b) c then Buffer.add_char b c
      else if i = 0 && (match c with '0' .. '9' -> true | _ -> false) then begin
        Buffer.add_char b '_';
        Buffer.add_char b c
      end
      else Buffer.add_char b '_')
    name;
  Buffer.contents b

(* %.17g round-trips a double, so a scrape is as exact as the JSON
   snapshot; Prometheus itself parses any Go float literal. *)
let prometheus_num v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_prometheus snap =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, v) ->
      let n = prometheus_name name in
      match v with
      | Counter_v c ->
          line "# TYPE %s_total counter" n;
          line "%s_total %d" n c
      | Gauge_v { last; max } ->
          line "# TYPE %s gauge" n;
          line "%s %s" n (prometheus_num last);
          line "# TYPE %s_max gauge" n;
          line "%s_max %s" n (prometheus_num max)
      | Histogram_v { upper; counts; total; sum } ->
          line "# TYPE %s histogram" n;
          let cumulative = ref 0 in
          Array.iteri
            (fun i bound ->
              cumulative := sat_add !cumulative counts.(i);
              line "%s_bucket{le=\"%s\"} %d" n (prometheus_num bound)
                !cumulative)
            upper;
          line "%s_bucket{le=\"+Inf\"} %d" n total;
          line "%s_sum %s" n (prometheus_num sum);
          line "%s_count %d" n total)
    snap;
  Buffer.contents b

let pp fmt snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> Format.fprintf fmt "%-44s %d@." name n
      | Gauge_v { last; max } ->
          Format.fprintf fmt "%-44s last %g, max %g@." name last max
      | Histogram_v { total; sum; _ } ->
          Format.fprintf fmt "%-44s n=%d, sum=%g%s@." name total sum
            (if total > 0 then
               Printf.sprintf ", mean=%g" (sum /. float_of_int total)
             else ""))
    snap
