let infinite_support =
  [
    ("Exponential", Exponential.default);
    ("Weibull", Weibull.default);
    ("Gamma", Gamma_dist.default);
    ("Lognormal", Lognormal.default);
    ("TruncatedNormal", Truncated_normal.default);
    ("Pareto", Pareto.default);
  ]

let finite_support =
  [
    ("Uniform", Uniform_dist.default);
    ("Beta", Beta_dist.default);
    ("BoundedPareto", Bounded_pareto.default);
  ]

let all = infinite_support @ finite_support

