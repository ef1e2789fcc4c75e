let frame name =
  String.map (function ';' | ' ' | '\n' | '\t' -> '_' | c -> c) name

let folded t =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let rec walk prefix (sp : Trace_read.span) =
    let stack =
      if prefix = "" then frame sp.Trace_read.name
      else prefix ^ ";" ^ frame sp.Trace_read.name
    in
    let self = Trace_read.self_time sp in
    if self > 0.0 then
      Hashtbl.replace tbl stack
        (self +. Option.value (Hashtbl.find_opt tbl stack) ~default:0.0);
    List.iter (walk stack) sp.Trace_read.children
  in
  List.iter (walk "") t.Trace_read.roots;
  Hashtbl.fold (fun stack v acc -> (stack, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_lines t =
  List.map
    (fun (stack, seconds) ->
      let micros = Float.round (1e6 *. seconds) in
      Printf.sprintf "%s %.0f" stack (Float.max 1.0 micros))
    (folded t)

