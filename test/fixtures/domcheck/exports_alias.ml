(* Fixture: a library-side caller that reaches Exports only through
   module aliases, a top-level one and a local one. *)

module X = Exports

let run x = X.aliased x

let run_local x =
  let module L = Exports in
  L.local_aliased x
