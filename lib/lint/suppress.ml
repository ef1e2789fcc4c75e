type directive = { line : int; rule : Finding.rule; reason : string }
type t = { directives : directive list; malformed : (int * string) list }

let marker = "stochlint:"

let is_space c = c = ' ' || c = '\t'

let is_rule_char c = (c >= 'A' && c <= 'Z') || c = '_'

(* Parse " allow RULE — reason" starting right after the marker.
   Returns the rule and the reason text (trimmed, trailing comment
   close stripped). *)
let parse_directive text =
  let n = String.length text in
  let i = ref 0 in
  while !i < n && is_space text.[!i] do incr i done;
  let kw = "allow" in
  let kn = String.length kw in
  if !i + kn > n || String.sub text !i kn <> kw then Error "expected `allow`"
  else begin
    i := !i + kn;
    while !i < n && is_space text.[!i] do incr i done;
    let start = !i in
    while !i < n && is_rule_char text.[!i] do incr i done;
    if !i = start then Error "expected a rule id after `allow`"
    else
      let id = String.sub text start (!i - start) in
      match Finding.rule_of_id id with
      | None -> Error (Printf.sprintf "unknown rule id %s" id)
      | Some rule ->
          let rest = String.sub text !i (n - !i) in
          (* Strip the comment close and leading separator glyphs
             (em-dash bytes included) from the reason. *)
          let rest =
            match String.index_opt rest '*' with
            | Some j when j + 1 < String.length rest && rest.[j + 1] = ')' ->
                String.sub rest 0 j
            | _ -> rest
          in
          let reason =
            String.trim
              (String.concat ""
                 (List.map
                    (fun c ->
                      if c = '-' || c = ':' || Char.code c >= 0x80 then " "
                      else String.make 1 c)
                    (List.init (String.length rest) (String.get rest))))
          in
          Ok { line = 0; rule; reason }
  end

(* First occurrence of [needle] in [haystack] within [from, upto). *)
let find_sub haystack ~needle ~from ~upto =
  let nn = String.length needle in
  let rec go i =
    if i + nn > upto then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go (Stdlib.max from 0)

let scan source =
  let directives = ref [] in
  let malformed = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let n = String.length source in
  let mn = String.length marker in
  let scan_line upto =
    (* Look for every marker occurrence within [!line_start, upto). *)
    let rec go from =
      match find_sub source ~needle:marker ~from ~upto with
      | None -> ()
      | Some idx ->
          (* Only treat the marker as a directive when it sits inside a
             comment opened on the same line — a "stochlint:" in a
             string literal (the linter's own sources!) is not one. *)
          let in_comment =
            match find_sub source ~needle:"(*" ~from:!line_start ~upto:idx with
            | Some _ -> true
            | None -> false
          in
          if in_comment then begin
            let text = String.sub source (idx + mn) (n - idx - mn) in
            match parse_directive text with
            | Ok d -> directives := { d with line = !line } :: !directives
            | Error msg -> malformed := (!line, msg) :: !malformed
          end;
          go (idx + mn)
    in
    go !line_start
  in
  for i = 0 to n - 1 do
    if source.[i] = '\n' then begin
      scan_line i;
      incr line;
      line_start := i + 1
    end
  done;
  scan_line n;
  { directives = List.rev !directives; malformed = List.rev !malformed }

let reason t ~rule ~line =
  List.find_map
    (fun d ->
      if d.rule = rule && (d.line = line || d.line = line - 1) then
        Some d.reason
      else None)
    t.directives

let active t ~rule ~line = Option.is_some (reason t ~rule ~line)

let malformed t = t.malformed
