type t = string -> unit

let of_channel oc line =
  output_string oc line;
  output_char oc '\n'

let to_buffer buf line =
  Buffer.add_string buf line;
  Buffer.add_char buf '\n'
