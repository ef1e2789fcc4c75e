(* Fixture: globals handed to a callee that mutates its parameters. A
   global passed as the argument itself is written by the caller that
   hands it over; one nested inside another call's argument goes to
   that inner call instead, which here only reads it. Line positions
   are pinned by test/test_domcheck.ml — append only. *)

let shared = [| 0; 0 |]
let kept = [| 1; 2 |]

(* Mutates its parameter, so whatever it is handed is written. *)
let fill a = a.(0) <- 1
let count l =
  let n = ref 0 in
  List.iter (fun _ -> incr n) l;
  !n

let direct () = fill shared
let nested () = count (Array.to_list kept)
