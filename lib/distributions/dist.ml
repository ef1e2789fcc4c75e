type support = Bounded of float * float | Unbounded of float

type t = {
  name : string;
  support : support;
  pdf : float -> float;
  cdf : float -> float;
  quantile : float -> float;
  mean : float;
  variance : float;
  sample : Randomness.Rng.t -> float;
  conditional_mean : float -> float;
}

let lower d = match d.support with Bounded (a, _) -> a | Unbounded a -> a
let upper d = match d.support with Bounded (_, b) -> b | Unbounded _ -> infinity
let is_bounded d = match d.support with Bounded _ -> true | Unbounded _ -> false

let sf_of_cdf c =
  let s = 1.0 -. c in
  if s < 0.0 then 0.0 else if s > 1.0 then 1.0 else s

let sf d t = sf_of_cdf (d.cdf t)

let std d = sqrt d.variance
let samples d rng n = Array.init n (fun _ -> d.sample rng)

let scale c d =
  if (not (Float.is_finite c)) || c <= 0.0 then
    invalid_arg "Dist.scale: factor must be positive and finite";
  let support =
    match d.support with
    | Bounded (a, b) -> Bounded (c *. a, c *. b)
    | Unbounded a -> Unbounded (c *. a)
  in
  {
    name = Printf.sprintf "%g*%s" c d.name;
    support;
    pdf = (fun t -> d.pdf (t /. c) /. c);
    cdf = (fun t -> d.cdf (t /. c));
    quantile = (fun p -> c *. d.quantile p);
    mean = c *. d.mean;
    variance = c *. c *. d.variance;
    sample = (fun rng -> c *. d.sample rng);
    conditional_mean = (fun tau -> c *. d.conditional_mean (tau /. c));
  }

let numeric_conditional_mean d tau =
  let a = lower d in
  let tau = Float.max tau a in
  let tail = sf d tau in
  if tail <= 0.0 then tau
  else begin
    let integrand t = t *. d.pdf t in
    let num =
      match d.support with
      | Bounded (_, b) ->
          if tau >= b then b
          else Numerics.Integrate.gauss_kronrod integrand tau b
      | Unbounded _ -> Numerics.Integrate.to_infinity integrand tau
    in
    num /. tail
  end

let numeric_mean d =
  let integrand t = t *. d.pdf t in
  match d.support with
  | Bounded (a, b) -> Numerics.Integrate.gauss_kronrod integrand a b
  | Unbounded a -> Numerics.Integrate.to_infinity integrand a

let pp fmt d =
  let support_str =
    match d.support with
    | Bounded (a, b) -> Printf.sprintf "[%g, %g]" a b
    | Unbounded a -> Printf.sprintf "[%g, inf)" a
  in
  Format.fprintf fmt "%s on %s (mean=%g, std=%g)" d.name support_str d.mean
    (std d)
