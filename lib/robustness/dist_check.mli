(** Numerical self-check for any {!Distributions.Dist.t}.

    Fitted or user-supplied distributions with inconsistent
    pdf/cdf/quantile triples silently poison every solver downstream:
    the Eq. (11) recurrence divides by the density, BRUTE-FORCE ranks
    candidates by Monte-Carlo draws from the quantile, and the
    Theorem 5 DP discretizes through the cdf. [run] probes all of
    these for mutual consistency on a quantile-spaced grid and returns
    a structured report (never a bare bool, never an exception): each
    violated invariant becomes an {!issue} carrying a severity and a
    human-readable detail. A probe that itself raises is converted
    into a [Fatal] issue.

    Checks performed:
    {ul
    {- support well-formed ([0 <= a < b]);}
    {- quantile finite, monotone, inside the support;}
    {- cdf within [[0, 1]], nondecreasing, [~0] at the lower bound;}
    {- quantile/cdf round-trip: [F (Q p) >= p] within tolerance
       (a large excess [F (Q p) - p] flags an atom and downgrades the
       density checks to warnings);}
    {- pdf nonnegative and finite;}
    {- pdf integrates to [~1] over the support
       ({!Numerics.Integrate.gauss_kronrod} between quantile knots, so
       near-point-mass spikes cannot slip between nodes); a segment
       whose integral is not finite skips this and the mean check
       with a [mass-check-skipped] warning;}
    {- mean finite, inside the support, consistent with the integral
       of [t f(t)] (partial-mean bound for heavy tails);}
    {- variance not NaN and nonnegative ([infinity] is a warning: the
       Theorem 2 bounds become unavailable but the DP tiers still
       work);}
    {- [conditional_mean tau] finite and [>= tau];}
    {- sampler produces finite values inside the support.}} *)

type severity =
  | Warning  (** Degrades solver tiers but does not preclude solving. *)
  | Fatal  (** The distribution cannot be solved as supplied. *)

type issue = { id : string; severity : severity; detail : string }
(** One violated invariant: [id] names the check (e.g.
    ["quantile-cdf-roundtrip"]), [detail] localises the violation. *)

type report = {
  dist_name : string;
  probes : int;  (** Number of grid probe points examined. *)
  issues : issue list;  (** Violations, in discovery order. *)
}

val run : Distributions.Dist.t -> report
(** [run d] probes [d] on [33] quantile-spaced interior points plus
    fixed near-tail probabilities. Hard numerical identities
    (monotonicity slack, round-trip deficit) hold within [1e-6]; the
    pdf/cdf mass discrepancies, which go through quadrature, within
    [5e-3]. Never raises. *)

val is_valid : report -> bool
(** [is_valid r] is [true] iff [r] contains no [Fatal] issue. *)

val fatal : report -> issue list
(** The [Fatal] issues of the report. *)

val warnings : report -> issue list
(** The [Warning] issues of the report. *)

val summary : report -> string
(** One-line summary, e.g.
    ["LogNormal(3, 0.5): ok (36 probes, 0 warnings)"] or
    ["Frechet(1.5, 1): 1 fatal, 2 warnings"]. *)

val pp : Format.formatter -> report -> unit
(** Multi-line report: the summary followed by one line per issue. *)
