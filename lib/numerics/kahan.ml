type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.0; comp = 0.0 }

(* Inlined so that hot loops (the Eq. (4) series adds once per term)
   pass [x] unboxed instead of allocating it on every call. *)
let[@inline] add acc x =
  let t = acc.sum +. x in
  (* Neumaier's branch: compensate with whichever operand lost digits. *)
  if Float.abs acc.sum >= Float.abs x then
    acc.comp <- acc.comp +. ((acc.sum -. t) +. x)
  else acc.comp <- acc.comp +. ((x -. t) +. acc.sum);
  acc.sum <- t

let[@inline] sum acc = acc.sum +. acc.comp

let parts acc = (acc.sum, acc.comp)

let sum_array a =
  let acc = create () in
  Array.iter (add acc) a;
  sum acc

let mean_array a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Kahan.mean_array: empty array";
  sum_array a /. float_of_int n

