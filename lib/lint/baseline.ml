module Json = Stochobs.Json

type t = (string * Finding.rule * int) list
(* (file, rule, count), kept sorted for stable serialisation *)

let empty = []

let sort = List.sort (fun (f1, r1, _) (f2, r2, _) ->
    let c = String.compare f1 f2 in
    if c <> 0 then c
    else String.compare (Finding.rule_id r1) (Finding.rule_id r2))

let load path =
  match Driver.read_file path with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.of_string text with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> (
          match Json.member "entries" json with
          | None -> Error (Printf.sprintf "%s: missing \"entries\" field" path)
          | Some entries -> (
              match Json.to_list entries with
              | None ->
                  Error (Printf.sprintf "%s: \"entries\" is not an array" path)
              | Some items ->
                  let parse_entry acc item =
                    match acc with
                    | Error _ -> acc
                    | Ok entries -> (
                        let field name conv =
                          Option.bind (Json.member name item) conv
                        in
                        match
                          ( field "file" Json.to_str,
                            Option.bind (field "rule" Json.to_str)
                              Finding.rule_of_id,
                            field "count" Json.to_int )
                        with
                        | Some file, Some rule, Some count when count >= 0 ->
                            Ok ((file, rule, count) :: entries)
                        | _ ->
                            Error
                              (Printf.sprintf
                                 "%s: malformed baseline entry (need file, \
                                  known rule, count >= 0)"
                                 path))
                  in
                  Result.map sort
                    (List.fold_left parse_entry (Ok []) items))))

let of_findings findings =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Finding.t) ->
      let key = (f.file, f.rule) in
      let c = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (c + 1))
    findings;
  sort (Hashtbl.fold (fun (file, rule) count acc -> (file, rule, count) :: acc) tbl [])

let to_json_string t =
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Num 1.0);
         ( "entries",
           Json.Arr
             (List.map
                (fun (file, rule, count) ->
                  Json.Obj
                    [
                      ("file", Json.Str file);
                      ("rule", Json.Str (Finding.rule_id rule));
                      ("count", Json.Num (float_of_int count));
                    ])
                (sort t)) );
       ])
  ^ "\n"

let allowed t ~file ~rule =
  match
    List.find_opt (fun (f, r, _) -> f = file && r = rule) t
  with
  | Some (_, _, c) -> c
  | None -> 0

type application = {
  kept : Finding.t list;
  baselined : int;
  exceeded : (string * Finding.rule * int * int) list;
}

let apply t findings =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (f : Finding.t) ->
      let key = (f.file, f.rule) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (f :: cur))
    findings;
  let kept = ref [] in
  let baselined = ref 0 in
  let exceeded = ref [] in
  Hashtbl.iter
    (fun (file, rule) group ->
      let found = List.length group in
      let budget = allowed t ~file ~rule in
      if found <= budget then baselined := !baselined + found
      else begin
        kept := group @ !kept;
        if budget > 0 then exceeded := (file, rule, found, budget) :: !exceeded
      end)
    groups;
  {
    kept = List.sort Finding.compare !kept;
    baselined = !baselined;
    exceeded = !exceeded;
  }
