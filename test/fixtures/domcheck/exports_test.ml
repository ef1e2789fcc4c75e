(* Fixture: a test-side caller of Exports; the golden test classifies
   this file as test code. *)

let check () = Exports.tested 1 + Exports.seam 2
