(** Canonical quantized cache keys for solved strategies.

    A million tenants fitting LogNormal laws to their own traces
    produce a million {e slightly} different [(mu, sigma)] pairs, yet
    the reservation sequences they need are indistinguishable. This
    module collapses nearby parameters onto a shared grid so the
    solved-strategy cache (§3.12) answers all of them from one entry:
    each parameter is mapped to the index of its bucket on a
    geometric grid with relative resolution [grid] (consecutive bucket
    boundaries differ by a factor [1 + grid]), and the key string
    concatenates the distribution family, the bucket indices, the
    pricing model (same grid), the strategy name and the discretization
    budget. Equal keys = provably interchangeable solves up to the
    grid resolution; the grid is configurable per server. *)

val default_grid : float
(** [0.05]: parameters within ~5 % land in the same bucket. *)

val check_grid : float -> (float, string) result
(** Validate a grid resolution: finite and in [(0, 1]]. *)

val key :
  grid:float ->
  family:string ->
  params:(string * float) list ->
  model:Stochastic_core.Cost_model.t ->
  strategy:string ->
  m:int ->
  n:int ->
  disc_n:int ->
  max_evaluations:int ->
  seed:int ->
  count:int ->
  exact:bool ->
  string
(** The canonical cache key: family and strategy are lowercased,
    [params] and the model coefficients are quantized on [grid], the
    integer budget knobs pass through verbatim. Everything that can
    change the returned sequence (or its materialised prefix length
    [count]) is part of the key; the wall-clock guard deliberately is
    not, since answers do not depend on it except through exhaustion —
    and errors are never cached. *)
