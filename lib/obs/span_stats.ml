module J = Stochobs.Json

type row = {
  name : string;
  count : int;
  errors : int;
  total : float;
  self : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type acc = {
  mutable a_count : int;
  mutable a_errors : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_durations : float list;
}

let compute t =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (sp : Trace_read.span) ->
      let a =
        match Hashtbl.find_opt tbl sp.Trace_read.name with
        | Some a -> a
        | None ->
            let a =
              {
                a_count = 0;
                a_errors = 0;
                a_total = 0.0;
                a_self = 0.0;
                a_durations = [];
              }
            in
            Hashtbl.add tbl sp.Trace_read.name a;
            a
      in
      let d = Trace_read.duration sp in
      a.a_count <- a.a_count + 1;
      if Option.is_some sp.Trace_read.error then a.a_errors <- a.a_errors + 1;
      a.a_total <- a.a_total +. d;
      a.a_self <- a.a_self +. Trace_read.self_time sp;
      a.a_durations <- d :: a.a_durations)
    (Trace_read.spans t);
  let q = Numerics.Stats.quantile_nearest_rank_sorted in
  let rows =
    Hashtbl.fold
      (fun name a rows ->
        let ds = Array.of_list a.a_durations in
        Numerics.Stats.sort ds;
        {
          name;
          count = a.a_count;
          errors = a.a_errors;
          total = a.a_total;
          self = a.a_self;
          p50 = q ds 0.5;
          p95 = q ds 0.95;
          p99 = q ds 0.99;
          max = ds.(Array.length ds - 1);
        }
        :: rows)
      tbl []
  in
  List.sort
    (fun a b ->
      match compare b.total a.total with
      | 0 -> String.compare a.name b.name
      | c -> c)
    rows

let find rows name = List.find_opt (fun r -> String.compare r.name name = 0) rows

(* Exact comparison is deliberate: identical runs produce identical
   float sums, and "almost equal" totals are precisely what a diff
   must surface. Expressed as |delta| > 0 to keep the float-equality
   lint honest about intent. *)
let row_changed a b =
  a.count <> b.count || Float.abs (a.total -. b.total) > 0.0

let diff_changes ~old_rows ~new_rows =
  let names =
    List.sort_uniq String.compare
      (List.map (fun r -> r.name) old_rows @ List.map (fun r -> r.name) new_rows)
  in
  List.filter_map
    (fun name ->
      match (find old_rows name, find new_rows name) with
      | None, None -> None
      | (Some a, Some b) when not (row_changed a b) -> None
      | o, n -> Some (name, o, n))
    names

type change = {
  c_name : string;
  c_old : row option;
  c_new : row option;
  rel : float;
  regression : bool;
}

let diff ~threshold ~old_rows ~new_rows =
  if not (Float.is_finite threshold && threshold >= 0.0) then
    invalid_arg
      (Printf.sprintf
         "Span_stats.diff: threshold must be finite and >= 0, got %g" threshold);
  List.map
    (fun (name, o, n) ->
      let rel, regression =
        match (o, n) with
        | Some a, Some b when a.total > 0.0 ->
            let rel = (b.total -. a.total) /. a.total in
            (rel, rel > threshold)
        | Some _, Some b -> ((if b.total > 0.0 then infinity else 0.0), false)
        | None, Some _ -> (infinity, false)
        | _, None -> (-1.0, false)
      in
      { c_name = name; c_old = o; c_new = n; rel; regression })
    (diff_changes ~old_rows ~new_rows)

let row_to_json r =
  J.Obj
    [
      ("name", J.Str r.name);
      ("count", J.Num (float_of_int r.count));
      ("errors", J.Num (float_of_int r.errors));
      ("total_seconds", J.Num r.total);
      ("self_seconds", J.Num r.self);
      ("p50_seconds", J.Num r.p50);
      ("p95_seconds", J.Num r.p95);
      ("p99_seconds", J.Num r.p99);
      ("max_seconds", J.Num r.max);
    ]

let to_json rows = J.Arr (List.map row_to_json rows)

let pp fmt rows =
  Format.fprintf fmt "%-36s %7s %6s %12s %12s %10s %10s %10s@." "span" "count"
    "errors" "total(s)" "self(s)" "p50(s)" "p95(s)" "p99(s)";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-36s %7d %6d %12.6f %12.6f %10.6f %10.6f %10.6f@."
        r.name r.count r.errors r.total r.self r.p50 r.p95 r.p99)
    rows

let pp_changes fmt changes =
  List.iter
    (fun c ->
      let count = function None -> 0 | Some r -> r.count in
      let total = function None -> 0.0 | Some r -> r.total in
      Format.fprintf fmt "%s %-36s count %d -> %d, total %.6fs -> %.6fs (%+.1f%%)@."
        (if c.regression then "REGRESSION" else "change    ")
        c.c_name (count c.c_old) (count c.c_new) (total c.c_old)
        (total c.c_new)
        (100.0 *. c.rel))
    changes
