type t = unit -> float

let cpu : t = Sys.time
let wall : t = Unix.gettimeofday

let fake ?(start = 0.0) ?(step = 0.001) () : t =
  if not (Float.is_finite start) || not (Float.is_finite step) || step < 0.0
  then invalid_arg "Clock.fake: start/step must be finite, step nonnegative";
  let ticks = ref 0 in
  fun () ->
    let t = start +. (float_of_int !ticks *. step) in
    incr ticks;
    t
