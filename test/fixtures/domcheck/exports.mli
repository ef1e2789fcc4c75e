(* Fixture: the interface UNUSED_EXPORT reads. Library callers use
   [used] (Exports_user) and [aliased], [local_aliased] (Exports_alias);
   Exports_test calls [tested] and [seam]; nothing calls [unused]. *)

val used : int -> int
val unused : int -> int
val tested : int -> int

(* stochlint: allow UNUSED_EXPORT — exports_test pins it *)
val seam : int -> int

val aliased : int -> int
val local_aliased : int -> int
