"""Order statistics of independent latency distributions.

Redundant read dispatch (docs/REDUNDANCY.md) turns per-device sojourn
laws into *order statistics*: a speculative ``k``-of-``n`` read responds
at the minimum of ``k`` independent replica sojourns, a quorum GET at
the majority-th, a fork-join striped read at the maximum of its ``k``
fragment reads.  For independent components the CDF has the exact
binomial form

    F_(k:n)(t) = P(at least k of n components are <= t)
               = sum_{j>=k} C(n,j) F(t)^j (1 - F(t))^(n-j)
               = I_{F(t)}(k, n - k + 1)            (iid case)

where ``I`` is the regularised incomplete beta function, and the
Poisson-binomial generalisation when components differ.  Neither has a
closed-form Laplace transform (``has_laplace`` is ``False``), so order
statistics compose with the rest of the model in the *CDF/grid* domain.
:meth:`to_grid` applies the same tail identity bin edge by bin edge to
the children's lattice CDFs (their :func:`~repro.distributions.grid
.grid_of` discretisations), so a statistic over queueing composites
discretises without a single Laplace inversion; the moments come from
that lattice too.  :func:`~repro.distributions.grid.grid_of` memoises
every discretisation per ``cache_token`` through
:mod:`repro.distributions.evalcache` -- the same node-sharing that
batches Mixture/Convolution evaluation.

Node sharing inside one evaluation: :class:`KofN` evaluates its (shared)
child once per ``t`` batch or lattice regardless of ``n``, and
:class:`OrderStatistic` deduplicates children by value identity
(``cache_token``) before running the Poisson-binomial recurrence, so a
device set containing equal sojourn laws costs one child evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from repro.distributions.base import Distribution, DistributionError
from repro.distributions.composite import _child_tokens
from repro.distributions.grid import GridPMF, grid_of

__all__ = ["KofN", "OrderStatistic", "order_statistic"]

#: "Token not yet computed" sentinel (see composite.py: ``None`` is a
#: valid token value and the sentinel must survive pickling).
_UNSET = False

#: Lattice resolution and captured-mass target of the moments (order
#: statistics have no closed-form moments in general).
_MOMENT_BINS = 4096
_MOMENT_TAIL = 1e-10


def _binomial_tail(k: int, n: int, p):
    """``P(Binomial(n, p) >= k)`` via the regularised incomplete beta
    function ``I_p(k, n - k + 1)`` (exact, vectorised over ``p``)."""
    return betainc(k, n - k + 1, p)


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
    horizon-truncated values -- the CDF itself stays exact.
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


class KofN(Distribution):
    """k-th order statistic of ``n`` iid copies of one distribution.

    ``k = 1`` is the minimum (speculative first-response-wins), ``k = n``
    the maximum (fork-join completion), ``k = n//2 + 1`` the majority
    (quorum GET).  The CDF is the exact binomial identity evaluated
    through ``betainc``; the shared child is evaluated once per batch,
    and :meth:`to_grid` applies it to the child's lattice CDF.
    """

    __slots__ = ("component", "k", "n", "_token", "_moments")

    has_laplace = False

    def __init__(self, component: Distribution, k: int, n: int) -> None:
        k = int(k)
        n = int(n)
        if n < 1:
            raise DistributionError(f"need at least one component, got n={n}")
        if not 1 <= k <= n:
            raise DistributionError(f"order k={k} out of range for n={n}")
        self.component = component
        self.k = k
        self.n = n
        self._token = _UNSET
        self._moments: tuple[float, float] | None = None

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            child = self.component.cache_token()
            token = None if child is None else ("kofn", self.k, self.n, child)
            self._token = token
        return token

    @property
    def atom_at_zero(self) -> float:
        return float(_binomial_tail(self.k, self.n, self.component.atom_at_zero))

    def laplace(self, s):
        raise DistributionError(
            "order statistics have no closed-form Laplace transform; "
            "compose them in the CDF/grid domain (grid_of / to_grid)"
        )

    def cdf(self, t, **kwargs):
        f = np.clip(
            np.asarray(self.component.cdf(t, **kwargs), dtype=float), 0.0, 1.0
        )
        return np.asarray(_binomial_tail(self.k, self.n, f))[()]

    def to_grid(self, dt: float, n: int) -> GridPMF:
        f = _lattice_cdf(self.component, dt, n)
        return _grid_from_edges(dt, _binomial_tail(self.k, self.n, f))

    def _ensure_moments(self) -> tuple[float, float]:
        moments = self._moments
        if moments is None:
            moments = _lattice_moments(self, self.component.mean)
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
        draws = np.asarray(
            self.component.sample(rng, size=(self.n, count)), dtype=float
        ).reshape(self.n, count)
        out = np.partition(draws, self.k - 1, axis=0)[self.k - 1]
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KofN(k={self.k}, n={self.n}, component={self.component!r})"


class OrderStatistic(Distribution):
    """k-th order statistic of independent *heterogeneous* components.

    The CDF is the Poisson-binomial tail ``P(at least k of the component
    indicators 1{X_i <= t} fire)``, computed by the product-polynomial
    recurrence vectorised over ``t`` (or over the bin edges of the
    children's lattices, in :meth:`to_grid`).  Children that denote the
    same law (equal ``cache_token``) are evaluated once and their
    probabilities reused -- mixed device sets with repeated sojourn laws
    batch like the iid case.
    """

    __slots__ = ("components", "k", "_token", "_moments")

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
        self._token = _UNSET
        self._moments: tuple[float, float] | None = None

    @property
    def n(self) -> int:
        return len(self.components)

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            children = _child_tokens(self.components)
            token = None if children is None else ("ordstat", self.k, children)
            self._token = token
        return token

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

    Collapses trivial structure exactly:

    * one component (``n = 1``, forcing ``k = 1``) returns the child
      itself -- the identity the k=1 reduction argument rests on;
    * components that all denote the same law (same object, or equal
      non-``None`` cache tokens) build the iid :class:`KofN`, whose
      binomial-identity CDF evaluates the shared child once;
    * anything else builds the Poisson-binomial :class:`OrderStatistic`.
    """
    components = tuple(components)
    n = len(components)
    if n < 1:
        raise DistributionError("need at least one component")
    k = int(k)
    if not 1 <= k <= n:
        raise DistributionError(f"order k={k} out of range for n={n}")
    if n == 1:
        return components[0]
    first = components[0]
    if all(c is first for c in components[1:]):
        return KofN(first, k, n)
    tokens = [c.cache_token() for c in components]
    if tokens[0] is not None and all(tok == tokens[0] for tok in tokens[1:]):
        return KofN(first, k, n)
    return OrderStatistic(components, k)
