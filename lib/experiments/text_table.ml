let render ~header rows =
  let ncols = List.length header in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        invalid_arg "Text_table.render: ragged row")
    rows;
  let all = header :: rows in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 1024 in
  let emit_row r =
    List.iteri
      (fun i cell ->
        let w = widths.(i) in
        let pad = w - String.length cell in
        if i = 0 then begin
          Buffer.add_string buf cell;
          Buffer.add_string buf (String.make pad ' ')
        end
        else begin
          Buffer.add_string buf "  ";
          Buffer.add_string buf (String.make pad ' ');
          Buffer.add_string buf cell
        end)
      r;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let total =
    Array.fold_left ( + ) 0 widths + (2 * (ncols - 1))
  in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let fmt_ratio v =
  if Float.is_finite v then Printf.sprintf "%.2f" v else "-"
