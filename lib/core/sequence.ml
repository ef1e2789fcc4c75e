type t = float Seq.t

exception Not_covered of float

let of_list ts =
  let prev = ref 0.0 in
  List.iter
    (fun x ->
      if not (Float.is_finite x && x > !prev) then
        invalid_arg
          "Sequence.of_list: reservations must be positive, finite and \
           strictly increasing";
      prev := x)
    ts;
  List.to_seq ts

let take n s = List.of_seq (Seq.take n s)

let prefix_until ?(limit = 100_000) stop s =
  let out = ref [] in
  let count = ref 0 in
  let rec go s =
    if !count >= limit then ()
    else
      match Seq.uncons s with
      | None -> ()
      | Some (x, rest) ->
          incr count;
          out := x :: !out;
          if not (stop x) then go rest
  in
  go s;
  Array.of_list (List.rev !out)

let is_strictly_increasing n s =
  let prev = ref 0.0 in
  let ok = ref true in
  Seq.iter
    (fun x ->
      if x <= !prev then ok := false;
      prev := x)
    (Seq.take n s);
  !ok

let near_b a b = b -. (1e-9 *. (b -. a))

let keeps ~support ~prev x =
  Float.is_finite x && x > prev && x > 0.0
  &&
  match support with
  | Distributions.Dist.Unbounded _ -> true
  | Distributions.Dist.Bounded (a, b) -> x < near_b a b

let tail ~support prev =
  match support with
  | Distributions.Dist.Unbounded _ ->
      let rec double prev () =
        let v = if prev > 0.0 then 2.0 *. prev else 1.0 in
        Seq.Cons (v, double v)
      in
      double prev
  | Distributions.Dist.Bounded (_, b) ->
      if prev >= b then Seq.empty else Seq.return b

let sanitize ~support s =
  let rec step prev raw () =
    match Seq.uncons raw with
    | Some (x, rest) when keeps ~support ~prev x -> Seq.Cons (x, step x rest)
    | _ -> tail ~support prev ()
  in
  step 0.0 s

let max_steps = 100_000

let cost_of_run m s t =
  let prefix = Numerics.Kahan.create () in
  let rec go k s =
    if k > max_steps then raise (Not_covered t);
    match Seq.uncons s with
    | None -> raise (Not_covered t)
    | Some (tk, rest) ->
        if t <= tk then begin
          let open Cost_model in
          ( k,
            Numerics.Kahan.sum prefix
            +. (m.alpha *. tk)
            +. (m.beta *. t)
            +. m.gamma )
        end
        else begin
          let open Cost_model in
          Numerics.Kahan.add prefix
            ((m.alpha *. tk) +. (m.beta *. tk) +. m.gamma);
          go (k + 1) rest
        end
  in
  go 1 s

let pp_prefix n fmt s =
  let items = take (n + 1) s in
  let shown = if List.length items > n then List.filteri (fun i _ -> i < n) items else items in
  Format.fprintf fmt "(%s%s)"
    (String.concat ", " (List.map (Printf.sprintf "%g") shown))
    (if List.length items > n then ", ..." else "")
