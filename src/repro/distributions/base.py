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
import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributions.grid import GridPMF


class DistributionError(ValueError):
    """Raised for invalid distribution parameters or unsupported queries."""


#: Steps of the scalar search :meth:`Distribution.quantile` evaluates per
#: ``cdf`` call: ``SEARCH_DEPTH`` bracket doublings, or up to
#: ``2**SEARCH_DEPTH - 1`` bisection midpoints -- along the path a root
#: estimate predicts, or filling the next ``SEARCH_DEPTH`` levels once an
#: estimate held for fewer steps than that.
SEARCH_DEPTH = 4


def _root_estimate(a: float, fa: float | None, b: float, fb: float | None, q: float):
    """Where ``F`` reaches ``q`` inside ``(a, b)``, from the end values.

    A secant on ``log1p(-F)``, which a tail decaying like ``exp(-t /
    scale)`` makes straight; a linear one on ``F`` where that log is not
    finite (``fb == 1``); the midpoint where neither interpolates (an
    end value unknown, or ``fa >= fb``).
    """
    if fa is not None and fb is not None and fa < q <= fb:
        if fb < 1.0:
            ga, gb = math.log1p(-fa), math.log1p(-fb)
            r = a + (b - a) * (math.log1p(-q) - ga) / (gb - ga)
        else:
            r = a + (b - a) * (q - fa) / (fb - fa)
        if a <= r <= b:
            return r
    return 0.5 * (a + b)


def _plan(lo: float, hi: float, window: tuple, left: int, tol: float) -> list:
    """Up to ``2**SEARCH_DEPTH - 1`` midpoints of the bisection below ``(lo, hi)``.

    Breadth first, the nodes the search reaches if its root lies in
    ``window = (r1, r2)``: one path for ``r1 == r2``, the whole tree for
    ``(lo, hi)``.  A node is left out past ``left`` steps or once its
    interval meets the stopping rule, as in the scalar search.
    """
    r1, r2 = window
    out: list[float] = []
    queue = [(lo, hi, 1)]
    for x, y, depth in queue:
        if len(out) == 2**SEARCH_DEPTH - 1:
            break
        if depth > left or y - x <= tol * max(1.0, y):
            continue
        mid = 0.5 * (x + y)
        out.append(mid)
        if mid >= r1:
            queue.append((x, mid, depth + 1))
        if mid < r2:
            queue.append((mid, y, depth + 1))
    return out


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
        but each ``cdf`` call here covers up to :data:`SEARCH_DEPTH`
        doublings, or up to ``2**SEARCH_DEPTH - 1`` bisection steps: the
        midpoints the scalar search visits if the root lies where a
        secant through the bracket puts it (:func:`_root_estimate`), or,
        after an estimate held for fewer than ``SEARCH_DEPTH`` steps, the
        next ``SEARCH_DEPTH`` levels of the bisection tree.  The walk
        takes each step on the value at its midpoint, so a wrong estimate
        costs calls, never the answer.  The batches are evaluated
        point-wise, so every value equals that of a one-time call.

        A ``RepairWarning`` flags a search whose values, in time order,
        fall by more than ``REPAIR_WARN_MASS`` in all (the mass a running
        max would move, as in :func:`repro.laplace.invert_cdf`): it
        bisected inversion noise, not the CDF.
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
        known: dict[float, float] = {}  # every point-wise value, by time

        def cdf_at(points: list[float]) -> np.ndarray:
            values = np.asarray(
                self.cdf(np.asarray(points), method=method, _pointwise=True),
                dtype=float,
            )
            known.update(zip(points, values.tolist()))
            return values

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
        # A batch follows the path the root estimate ``r`` predicts, or
        # spans the whole next tree when the last estimate held for fewer
        # than SEARCH_DEPTH steps; ``r`` is None once it has failed.
        r, held = None, SEARCH_DEPTH
        left = 200  # bisection steps
        while left > 0 and hi - lo > tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if mid not in known:
                fa = known.get(lo, self.atom_at_zero if lo == 0.0 else None)
                estimate = _root_estimate(lo, fa, hi, known.get(hi), q)
                window = (estimate, estimate) if held >= SEARCH_DEPTH else (lo, hi)
                cdf_at(_plan(lo, hi, window, left, tol))
                r, held = estimate, 0
            above = known[mid] >= q
            left -= 1
            if r is not None and above != (mid >= r):
                r = None
            held += r is not None
            if above:
                hi = mid
            else:
                lo = mid
        values = np.array([f for _, f in sorted(known.items())])
        fell = float((np.maximum.accumulate(values) - values).sum())
        from repro.laplace.inversion import REPAIR_WARN_MASS, RepairWarning

        if fell > REPAIR_WARN_MASS:
            warnings.warn(
                f"{type(self).__name__}.quantile({q}, method={method!r}): the "
                f"cdf values searched fall with t by {fell:.3e} of mass -- "
                "the bisection followed inversion noise",
                RepairWarning,
                stacklevel=2,
            )
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
