"""Base classes for latency distributions.

The analytic model of the paper composes latency distributions almost
exclusively in the Laplace-transform domain: the union-operation service
time is a product of transforms, the Pollaczek--Khinchin formula maps the
service transform to the waiting-time transform, and the final response
latency is again a product (i.e. a convolution in the time domain).

Every distribution in this package therefore exposes:

``laplace(s)``
    The Laplace transform ``E[exp(-s X)]`` of its pdf, evaluated at complex
    ``s`` (vectorised over numpy arrays).  This is the primary composition
    primitive.

``mean`` / ``second_moment`` / ``variance``
    Closed-form moments, needed by the P--K mean-waiting-time formula and
    by stability checks.

``cdf(t)``
    The cumulative distribution function.  Distributions with a known
    closed form override it; composite distributions fall back to a
    numerical inversion of ``laplace(s)/s`` (see :mod:`repro.laplace`).

``sample(rng, size)``
    Random variates, used by the discrete-event simulator and by the
    cross-validation tests that compare analytic and empirical behaviour.

``atom_at_zero``
    The probability mass located exactly at zero.  Cache hits contribute
    such atoms (the paper approximates memory latency by zero, a Dirac
    delta), and numerical Laplace inversion needs to know about them
    because the inversion reconstructs only the absolutely continuous
    part reliably near the origin.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributions.grid import GridPMF


class DistributionError(ValueError):
    """Raised for invalid distribution parameters or unsupported queries."""


#: Steps of the scalar search :meth:`Distribution.quantile` evaluates per
#: ``cdf`` call: ``SEARCH_DEPTH`` bracket doublings, or the
#: ``2**SEARCH_DEPTH - 1`` midpoints of the next ``SEARCH_DEPTH`` bisection
#: levels.  4 measured fastest on 16-device mixtures; 5 is close.
SEARCH_DEPTH = 4


def _bisection_tree(lo: float, hi: float, depth: int, tol: float):
    """The midpoints of the next ``depth`` bisection levels below ``(lo, hi)``.

    Returns ``(mids, slot)``.  ``slot`` is heap ordered -- node ``i``
    has children ``2i + 1`` (the lower half) and ``2i + 2`` -- and holds
    each node's index into ``mids``, or -1 where the node's interval
    already meets the stopping rule (or an ancestor's did), so the
    search stops there and nothing is evaluated.  Every midpoint is
    computed from the same floats a one-step-at-a-time search would use.
    """
    n = 2**depth - 1
    bounds: list = [None] * n
    bounds[0] = (lo, hi)
    slot = [-1] * n
    mids: list[float] = []
    for i in range(n):
        if bounds[i] is None:
            continue
        a, b = bounds[i]
        if b - a <= tol * max(1.0, b):
            continue
        mid = 0.5 * (a + b)
        slot[i] = len(mids)
        mids.append(mid)
        if 2 * i + 2 < n:
            bounds[2 * i + 1] = (a, mid)
            bounds[2 * i + 2] = (mid, b)
    return mids, slot


class Distribution(abc.ABC):
    """A non-negative latency distribution with a Laplace transform."""

    __slots__ = ()

    #: Whether :meth:`laplace` is available.  A handful of distributions
    #: (e.g. the lognormal) have no closed-form transform; they can still
    #: be used for fitting and simulation but not for transform-domain
    #: model composition.
    has_laplace: bool = True

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """First moment ``E[X]``."""

    @property
    @abc.abstractmethod
    def second_moment(self) -> float:
        """Second raw moment ``E[X^2]``."""

    @property
    def variance(self) -> float:
        """Variance ``E[X^2] - E[X]^2`` (clipped at zero for round-off)."""
        return max(self.second_moment - self.mean**2, 0.0)

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var[X]/E[X]^2``.

        Used by the two-moment M/G/1/K approximations.  Degenerate
        distributions return 0; a zero-mean distribution returns 0 as
        well (it is a point mass at the origin).
        """
        m = self.mean
        if m == 0.0:
            return 0.0
        return self.variance / (m * m)

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def laplace(self, s):
        """Laplace transform ``E[e^{-sX}]`` at complex ``s`` (vectorised)."""

    @property
    def atom_at_zero(self) -> float:
        """Probability mass exactly at zero (default: none)."""
        return 0.0

    def cache_token(self) -> tuple | None:
        """Hashable value-identity key for memoised evaluation.

        Two distributions with equal tokens must denote the same law;
        ``None`` (the default) marks the distribution as uncacheable and
        every evaluation routed through
        :mod:`repro.distributions.evalcache` falls through uncached.
        Composites derive their token from their children's, so a single
        ``None`` leaf disables caching for the whole subtree.
        """
        return None

    # ------------------------------------------------------------------
    # Time-domain evaluation
    # ------------------------------------------------------------------
    def cdf(
        self,
        t,
        *,
        method: str = "euler",
        terms: int | None = None,
        _pointwise: bool = False,
    ):
        """Cumulative distribution function ``P(X <= t)``.

        The default implementation numerically inverts ``laplace(s)/s``
        via the algorithms in :mod:`repro.laplace`.  ``t`` may be a scalar
        or array; values ``t <= 0`` map to :attr:`atom_at_zero` (for
        ``t == 0``) or 0 (for ``t < 0``).  ``_pointwise`` is private to
        :meth:`quantile` (see :func:`repro.laplace.invert_cdf`).
        """
        from repro.laplace import invert_cdf

        return invert_cdf(self, t, method=method, terms=terms, _pointwise=_pointwise)

    def sf(self, t, **kwargs):
        """Survival function ``P(X > t) = 1 - cdf(t)``."""
        return 1.0 - self.cdf(t, **kwargs)

    def quantile(
        self,
        q: float,
        *,
        bracket: tuple[float, float] | None = None,
        tol: float = 1e-9,
        method: str = "euler",
    ) -> float:
        """Invert the CDF by bisection: smallest ``t`` with ``cdf(t) >= q``.

        Returns 0 when ``q`` is at or below :attr:`atom_at_zero`; ``q``
        outside ``[0, 1)`` raises :class:`DistributionError`.
        ``bracket = (lo, hi)`` bounds the search and must satisfy ``0 <=
        lo < hi`` with ``hi`` finite; without it the upper bound doubles
        from twice the mean until ``cdf(hi) >= q``.  The search stops once
        the interval is narrower than ``tol * max(1, hi)``.

        The answer is that of a scalar search, one ``cdf`` call per step,
        but each ``cdf`` call here covers :data:`SEARCH_DEPTH` steps: the
        next doubling points, or every midpoint of the next bisection
        levels.  The batches are evaluated point-wise, so every value
        equals that of a one-time call.
        """
        if not 0.0 <= q < 1.0:
            raise DistributionError(f"quantile level must be in [0, 1), got {q}")
        if bracket is not None:
            lo, hi = (float(b) for b in bracket)
            if not (0.0 <= lo < hi and np.isfinite(hi)):
                raise DistributionError(
                    f"quantile bracket must satisfy 0 <= lo < hi < inf, got {bracket}"
                )
        if q <= self.atom_at_zero:
            return 0.0

        def cdf_at(points: list[float]) -> np.ndarray:
            return np.asarray(
                self.cdf(np.asarray(points), method=method, _pointwise=True),
                dtype=float,
            )

        if bracket is None:
            lo = 0.0
            hi = max(self.mean, 1e-9) * 2.0
            # Up to 80 doublings; scaling by 2**j is exact, as is doubling.
            for start in range(0, 80, SEARCH_DEPTH):
                points = [hi * 2.0**j for j in range(min(SEARCH_DEPTH, 80 - start))]
                above = np.flatnonzero(cdf_at(points) >= q)
                if above.size:
                    hi = points[above[0]]
                    break
                hi = points[-1] * 2.0
            else:  # pragma: no cover - pathological transform
                raise DistributionError("failed to bracket quantile")
        left = 200  # bisection steps
        while left > 0:
            mids, slot = _bisection_tree(lo, hi, min(SEARCH_DEPTH, left), tol)
            if not mids:
                break
            above = cdf_at(mids) >= q
            node = 0
            while node < len(slot) and slot[node] >= 0:
                k = slot[node]
                left -= 1
                if above[k]:
                    hi = mids[k]
                    node = 2 * node + 1
                else:
                    lo = mids[k]
                    node = 2 * node + 2
            if node < len(slot):
                break  # the interval met the tolerance inside the tree
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    # Sampling & discretisation
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size=None):
        """Draw random variates (not all composites support this)."""
        raise DistributionError(
            f"{type(self).__name__} does not support direct sampling"
        )

    def to_grid(self, dt: float, n: int) -> "GridPMF":
        """Discretise onto a lattice ``{0, dt, 2 dt, ...}`` of ``n`` bins.

        Bin ``k`` receives the probability mass of ``((k-1/2) dt,
        (k+1/2) dt]`` with bin 0 additionally holding the zero atom.  The
        default implementation differences :meth:`cdf`; closed-form
        distributions may override for speed or exactness.
        """
        from repro.distributions.grid import GridPMF

        edges = (np.arange(n, dtype=float) + 0.5) * dt
        cdf_vals = np.asarray(self.cdf(edges), dtype=float)
        probs = np.empty(n, dtype=float)
        probs[0] = cdf_vals[0]
        probs[1:] = np.diff(cdf_vals)
        np.clip(probs, 0.0, 1.0, out=probs)
        return GridPMF(dt, probs)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mean={self.mean:.6g})"


def as_distribution(obj) -> Distribution:
    """Coerce ``obj`` into a :class:`Distribution`.

    Accepts an existing distribution, a non-negative scalar (mapped to a
    point mass), or raises :class:`DistributionError`.
    """
    from repro.distributions.analytic import Degenerate

    if isinstance(obj, Distribution):
        return obj
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return Degenerate(float(obj))
    raise DistributionError(f"cannot interpret {obj!r} as a distribution")


def check_positive(name: str, value: float) -> float:
    """Validate a strictly positive parameter."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise DistributionError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate a non-negative parameter."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise DistributionError(f"{name} must be >= 0 and finite, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate a probability in ``[0, 1]``."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise DistributionError(f"{name} must lie in [0, 1], got {value}")
    return value
