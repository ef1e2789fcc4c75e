type t = (string, Distributions.Fitting.lognormal_fit) Hashtbl.t

let create () : t = Hashtbl.create 64

let fit t ~id samples =
  match Distributions.Fitting.lognormal_mle samples with
  | f ->
      Hashtbl.replace t id f;
      Ok f
  | exception Invalid_argument msg ->
      Error (Printf.sprintf "cannot fit tenant %S: %s" id msg)

let find t id = Hashtbl.find_opt t id

let count t = Hashtbl.length t
