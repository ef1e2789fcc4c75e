(* Fixture: a library-side caller of Exports. *)

let run x = Exports.used x
