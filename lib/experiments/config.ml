type t = { m : int; n_mc : int; disc_n : int; eps : float; seed : int }

let paper = { m = 5000; n_mc = 1000; disc_n = 1000; eps = 1e-7; seed = 42 }
let quick = { m = 300; n_mc = 400; disc_n = 200; eps = 1e-7; seed = 42 }

let rng_for cfg label =
  (* Mix the label into the seed with a simple string hash so that
     each experiment gets an independent, reproducible stream. *)
  let h = Hashtbl.hash label in
  Randomness.Rng.create ~seed:(cfg.seed lxor (h * 0x9E3779B9)) ()
