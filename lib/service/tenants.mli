(** Per-tenant distribution fits, kept warm between requests.

    A [fit] request reduces a tenant's sample trace to its LogNormal
    MLE (the paper's Fig. 1 estimator) and stores it here; later
    [solve] requests referencing [{"tenant": id}] reuse the stored fit
    without re-estimating — and, because fitted parameters are
    quantized into the cache key, tenants with near-identical traces
    share one cached solve. Re-fitting a tenant overwrites the stored
    fit. *)

type t

val create : unit -> t

val fit :
  t -> id:string -> float array ->
  (Distributions.Fitting.lognormal_fit, string) result
(** Fit and store. Fewer than 2 samples, or any non-positive sample,
    is an [Error] (the estimator's own domain), not an exception. *)

val find : t -> string -> Distributions.Fitting.lognormal_fit option

val count : t -> int
