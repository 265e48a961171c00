"""Order statistics of independent latency distributions.

Redundant read dispatch (docs/REDUNDANCY.md) turns per-device sojourn
laws into *order statistics*: a speculative ``k``-of-``n`` read responds
at the minimum of ``k`` independent replica sojourns, a quorum GET at
the majority-th, a fork-join striped read at the maximum of its ``k``
fragment reads.  For independent components the CDF is the exact
Poisson-binomial tail

    F_(k:n)(t) = P(at least k of n components are <= t)

which for iid components is the binomial sum
``sum_{j>=k} C(n,j) F(t)^j (1 - F(t))^(n-j)``.  It has no closed-form
Laplace transform (``has_laplace`` is ``False``), so order statistics
compose with the rest of the model in the *CDF/grid* domain.
:meth:`to_grid` applies the same tail identity bin edge by bin edge to
the children's lattice CDFs (their :func:`~repro.distributions.grid
.grid_of` discretisations), so a statistic over queueing composites
discretises without a single Laplace inversion; the moments come from
that lattice too.  :func:`~repro.distributions.grid.grid_of` memoises
every discretisation per ``cache_token`` through
:mod:`repro.distributions.evalcache` -- the same node-sharing that
batches Mixture/Convolution evaluation.

Node sharing inside one evaluation: :class:`OrderStatistic`
deduplicates children by value identity (``cache_token``, or the object
itself when uncacheable) before running the Poisson-binomial
recurrence, so ``n`` copies of one law, or a device set containing
equal sojourn laws, cost one child evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import Distribution, DistributionError
from repro.distributions.composite import _child_tokens
from repro.distributions.grid import GridPMF, grid_of

__all__ = ["OrderStatistic", "order_statistic"]

#: Lattice resolution and captured-mass target of the moments (order
#: statistics have no closed-form moments in general).
_MOMENT_BINS = 4096
_MOMENT_TAIL = 1e-10


def _poisson_binomial_tail(ps: np.ndarray, k: int) -> np.ndarray:
    """``P(at least k successes)`` for independent heterogeneous trials.

    ``ps`` has the trials on axis 0; the remaining axes are evaluation
    points.  Maintains the coefficient array of ``prod_i (1 - p_i +
    p_i z)`` -- the classic O(n^2) dynamic programme, vectorised over
    the evaluation axes (replica sets are tiny, n <= replicas)."""
    n = ps.shape[0]
    coeffs = np.zeros((n + 1,) + ps.shape[1:], dtype=float)
    coeffs[0] = 1.0
    for i in range(n):
        p = ps[i]
        q = 1.0 - p
        coeffs[i + 1] = coeffs[i] * p
        for j in range(i, 0, -1):
            coeffs[j] = coeffs[j] * q + coeffs[j - 1] * p
        coeffs[0] = coeffs[0] * q
    return coeffs[k:].sum(axis=0)


def _shared_rows(components, evaluate) -> list:
    """``evaluate(c)`` for every component, once per value identity.

    Children with equal ``cache_token`` (or the same object, when
    uncacheable) share one evaluation."""
    cache: dict = {}
    rows = []
    for c in components:
        key = c.cache_token()
        if key is None:
            key = id(c)
        vals = cache.get(key)
        if vals is None:
            vals = cache[key] = evaluate(c)
        rows.append(vals)
    return rows


def _lattice_cdf(dist: Distribution, dt: float, n: int) -> np.ndarray:
    """``dist``'s CDF at the bin edges ``(k + 1/2) dt`` of its lattice."""
    return np.clip(grid_of(dist, dt, n)._cumulative, 0.0, 1.0)


def _grid_from_edges(dt: float, cdf: np.ndarray) -> GridPMF:
    """The lattice whose bin edges carry the CDF values ``cdf``."""
    probs = np.diff(cdf, prepend=0.0)
    np.clip(probs, 0.0, 1.0, out=probs)
    return GridPMF(dt, probs)


def _lattice_moments(dist: Distribution, scale: float) -> tuple[float, float]:
    """Mean and second moment of ``dist``'s lattice.

    The horizon starts at the power of two at or above ``scale``, the
    statistic's own order of magnitude -- the power of two puts
    statistics over overlapping replica subsets on the same lattices, so
    they share their children's discretisations -- and doubles until the
    lattice misses at most ``_MOMENT_TAIL`` of the mass, or until a
    doubling captures no more of it (a child that is itself a truncated
    lattice never reaches the target; the finer lattice is kept).
    Children with infinite moments (heavy Pareto tails) yield
    horizon-truncated values -- the CDF itself stays exact.  Only a
    caller reading an order statistic's ``mean`` or ``second_moment``
    builds these lattices: the redundant model sizes its composition
    horizon from the children's analytic means instead.
    """
    if scale <= 0.0:
        # Children carry no mass above zero: the order statistic is the
        # point mass at zero as well.
        return 0.0, 0.0
    hi = 2.0 ** math.ceil(math.log2(scale)) if np.isfinite(scale) else 1.0
    grid = grid_of(dist, hi / _MOMENT_BINS, _MOMENT_BINS)
    for _ in range(200):
        if grid.tail_mass <= _MOMENT_TAIL:
            break
        hi *= 2.0
        wider = grid_of(dist, hi / _MOMENT_BINS, _MOMENT_BINS)
        if wider.tail_mass >= grid.tail_mass:
            break
        grid = wider
    t = grid.times
    return float(t @ grid.probs), float((t * t) @ grid.probs)


class OrderStatistic(Distribution):
    """k-th order statistic of independent components.

    The CDF is the Poisson-binomial tail ``P(at least k of the component
    indicators 1{X_i <= t} fire)``, computed by the product-polynomial
    recurrence vectorised over ``t`` (or over the bin edges of the
    children's lattices, in :meth:`to_grid`).  Children that denote the
    same law (equal ``cache_token``) are evaluated once and their
    probabilities reused, so iid components cost one evaluation.
    """

    __slots__ = ("components", "k", "_moments")

    has_laplace = False

    def __init__(self, components, k: int) -> None:
        components = tuple(components)
        n = len(components)
        if n < 1:
            raise DistributionError("need at least one component")
        k = int(k)
        if not 1 <= k <= n:
            raise DistributionError(f"order k={k} out of range for n={n}")
        self.components = components
        self.k = k
        self._moments: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return len(self.components)

    def cache_token(self) -> tuple | None:
        children = _child_tokens(self.components)
        return None if children is None else ("ordstat", self.k, children)

    @property
    def atom_at_zero(self) -> float:
        atoms = np.asarray([c.atom_at_zero for c in self.components], dtype=float)
        return float(_poisson_binomial_tail(atoms, self.k))

    def laplace(self, s):
        raise DistributionError(
            "order statistics have no closed-form Laplace transform; "
            "compose them in the CDF/grid domain (grid_of / to_grid)"
        )

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        rows = _shared_rows(
            self.components,
            lambda c: np.broadcast_to(
                np.clip(np.asarray(c.cdf(t, **kwargs), dtype=float), 0.0, 1.0),
                t.shape,
            ),
        )
        tail = _poisson_binomial_tail(np.stack(rows, axis=0), self.k)
        return np.clip(tail, 0.0, 1.0)[()]

    def to_grid(self, dt: float, n: int) -> GridPMF:
        rows = _shared_rows(self.components, lambda c: _lattice_cdf(c, dt, n))
        tail = _poisson_binomial_tail(np.stack(rows, axis=0), self.k)
        return _grid_from_edges(dt, np.clip(tail, 0.0, 1.0))

    def _ensure_moments(self) -> tuple[float, float]:
        moments = self._moments
        if moments is None:
            # The k-th smallest child mean: a saturated replica must not
            # set the resolution of a race the others win.
            scale = sorted(c.mean for c in self.components)[self.k - 1]
            moments = _lattice_moments(self, scale)
            self._moments = moments
        return moments

    @property
    def mean(self) -> float:
        return self._ensure_moments()[0]

    @property
    def second_moment(self) -> float:
        return self._ensure_moments()[1]

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        count = 1 if scalar else int(np.prod(size))
        draws = np.stack(
            [
                np.asarray(c.sample(rng, size=count), dtype=float).reshape(count)
                for c in self.components
            ]
        )
        out = np.partition(draws, self.k - 1, axis=0)[self.k - 1]
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OrderStatistic(k={self.k}, n={self.n} components)"


def order_statistic(components, k: int) -> Distribution:
    """Build the k-th order statistic of independent components.

    One component (``n = 1``, forcing ``k = 1``) returns the child itself
    -- the identity the k=1 reduction argument rests on; anything else
    builds the Poisson-binomial :class:`OrderStatistic`.
    """
    statistic = OrderStatistic(components, k)
    return statistic.components[0] if statistic.n == 1 else statistic
