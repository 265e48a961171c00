"""Lattice (grid) representation of latency distributions.

This is the second, independent evaluation engine.  The transform engine
(:mod:`repro.laplace`) composes distributions analytically and inverts
numerically; the grid engine discretises probability mass onto the lattice
``{0, dt, 2 dt, ...}`` and composes with FFT convolutions.  The two must
agree, which the test suite checks on every composite the model builds --
a strong guard against algebra mistakes in either engine.

The grid engine is also the only way to evaluate composites involving
distributions without a Laplace transform (e.g. lognormal), and powers the
"exact" accept()-wait ablation, which needs the time-domain integral
``W_a(t) = int_{x>=t} A(x) (x - t)/x dx`` that has no transform-domain
shortcut.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, DistributionError
from repro.distributions import evalcache

__all__ = ["GridPMF", "GridDistribution", "LatticeError", "grid_of", "convolve_many"]


class LatticeError(DistributionError):
    """A lattice could not hold enough of a distribution's mass.

    Raised instead of returning a lattice that silently misses mass:
    ``captured`` is the probability mass the last attempt kept.
    """

    def __init__(self, message: str, captured: float) -> None:
        super().__init__(message)
        self.captured = captured

    def __reduce__(self):
        # Both arguments survive a trip back from a worker process.
        return type(self), (str(self), self.captured)


class GridPMF:
    """Probability mass on the lattice ``k * dt`` for ``k = 0..n-1``.

    ``probs[k]`` approximates ``P(X in ((k - 1/2) dt, (k + 1/2) dt])``
    with ``probs[0]`` additionally holding any atom at zero.  Mass beyond
    the grid (the truncated tail) is available as :attr:`tail_mass`.

    Instances are immutable: ``probs`` is marked read-only so the
    cumulative-sum array backing :meth:`cdf`/:meth:`quantile` can be
    computed once and PMFs can be shared freely (e.g. from the
    ``grid_of`` memo) without defensive copies.
    """

    __slots__ = ("dt", "probs", "_cum")

    def __init__(self, dt: float, probs) -> None:
        if dt <= 0.0 or not np.isfinite(dt):
            raise DistributionError(f"dt must be positive, got {dt}")
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DistributionError("probs must be a non-empty 1-D array")
        if np.any(probs < -1e-12):
            raise DistributionError("probs must be non-negative")
        if probs.sum() > 1.0 + 1e-9:
            raise DistributionError("probs must sum to at most 1")
        self.dt = float(dt)
        # np.clip allocates a fresh array, so freezing it cannot leak
        # back into the caller's buffer.
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        self.probs = probs
        self._cum: np.ndarray | None = None

    @property
    def _cumulative(self) -> np.ndarray:
        """Cached ``cumsum(probs)`` (probs is frozen, so always valid)."""
        cum = self._cum
        if cum is None:
            cum = np.cumsum(self.probs)
            cum.setflags(write=False)
            self._cum = cum
        return cum

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.probs.size

    @property
    def horizon(self) -> float:
        """Largest representable time, ``(n - 1) * dt``."""
        return (self.n - 1) * self.dt

    @property
    def tail_mass(self) -> float:
        """Probability mass that fell beyond the grid horizon."""
        return max(0.0, 1.0 - float(self.probs.sum()))

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    @property
    def mean(self) -> float:
        return float(np.dot(self.times, self.probs))

    def cdf(self, t):
        """CDF evaluated at arbitrary ``t`` (right-continuous step sums)."""
        t = np.asarray(t, dtype=float)
        cum = self._cumulative
        idx = np.floor(t / self.dt + 0.5).astype(int)
        idx = np.clip(idx, -1, self.n - 1)
        out = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        return out[()]

    def edge_cdf(self, t):
        """CDF at arbitrary ``t``, linear between the bin edges.

        The lattice holds the CDF at the edges ``(k + 1/2) dt``; reading
        it as a step (:meth:`cdf`) returns the value at the edge at or
        above ``t``, biased by up to one bin of density, while the
        interpolation's error is second order in ``dt``.
        """
        t = np.asarray(t, dtype=float)
        edges = (np.arange(self.n) + 0.5) * self.dt
        out = np.interp(t, edges, self._cumulative)
        return np.where(t >= 0.0, out, 0.0)[()]

    def quantile(self, q: float) -> float:
        if not 0.0 <= q < 1.0:
            raise DistributionError(f"quantile level must be in [0, 1), got {q}")
        cum = self._cumulative
        idx = int(np.searchsorted(cum, q, side="left"))
        if idx >= self.n:
            raise DistributionError("quantile beyond grid horizon; enlarge n")
        return idx * self.dt

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "GridPMF") -> None:
        if not np.isclose(self.dt, other.dt, rtol=1e-12, atol=0.0):
            raise DistributionError("grids must share the same dt")

    def convolve(self, other: "GridPMF", *, n: int | None = None) -> "GridPMF":
        """Distribution of the sum of two independent lattice variables."""
        self._check_compatible(other)
        full = np.convolve(self.probs, other.probs)
        n = n if n is not None else max(self.n, other.n)
        out = full[:n]
        return GridPMF(self.dt, out)

    def mixture(self, other: "GridPMF", weight_self: float) -> "GridPMF":
        """Two-component mixture on a common grid."""
        self._check_compatible(other)
        if not 0.0 <= weight_self <= 1.0:
            raise DistributionError("weight must be in [0, 1]")
        n = max(self.n, other.n)
        a = np.zeros(n)
        a[: self.n] = self.probs
        b = np.zeros(n)
        b[: other.n] = other.probs
        return GridPMF(self.dt, weight_self * a + (1.0 - weight_self) * b)

    def zero_inflate(self, miss_ratio: float) -> "GridPMF":
        """``miss_ratio * self + (1 - miss_ratio) * delta_0`` on the grid."""
        if not 0.0 <= miss_ratio <= 1.0:
            raise DistributionError("miss_ratio must be in [0, 1]")
        probs = miss_ratio * self.probs
        probs = probs.copy()
        probs[0] += 1.0 - miss_ratio
        return GridPMF(self.dt, probs)

    def poisson_compound(self, rate: float, *, n: int | None = None) -> "GridPMF":
        """Compound Poisson sum via the FFT: ``exp(rate (G(z) - 1))``.

        The grid is zero-padded to at least double length before the FFT
        so circular wrap-around cannot fold tail mass back onto small
        times; residual wrapped mass is bounded by the (reported)
        truncated tail.
        """
        if rate < 0.0:
            raise DistributionError("rate must be >= 0")
        n = n if n is not None else self.n
        m = 1
        while m < 2 * max(n, self.n):
            m *= 2
        padded = np.zeros(m)
        padded[: self.n] = self.probs
        g = np.fft.rfft(padded)
        out = np.fft.irfft(np.exp(rate * (g - 1.0)), m)
        out = np.clip(out[:n], 0.0, None)
        return GridPMF(self.dt, out)

    def truncate(self, n: int) -> "GridPMF":
        """Drop (or zero-pad to) ``n`` bins."""
        if n <= 0:
            raise DistributionError("n must be positive")
        if n <= self.n:
            return GridPMF(self.dt, self.probs[:n])
        probs = np.zeros(n)
        probs[: self.n] = self.probs
        return GridPMF(self.dt, probs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPMF(dt={self.dt!r}, n={self.n}, mean={self.mean:.6g}, "
            f"tail={self.tail_mass:.3g})"
        )


def convolve_many(pmfs, *, n: int | None = None) -> GridPMF:
    """Convolve any number of compatible grids with one padded rFFT.

    A chain of pairwise ``np.convolve`` calls over ``k`` grids costs
    ``O(k n^2)``; a single real FFT over a power-of-two padding of the
    full linear-convolution length costs ``O(k m log m)`` and computes
    the identical first ``n`` bins.  Equality with the truncated
    pairwise chain holds because convolution is *causal*: output bin
    ``j < n`` depends only on input bins ``<= j``, so mass the pairwise
    chain truncates at each step (indices ``>= n``) can never have
    influenced the bins that are kept.  Padding to at least the full
    linear length prevents circular wrap-around entirely.
    """
    pmfs = list(pmfs)
    if not pmfs:
        raise DistributionError("convolve_many needs at least one grid")
    first = pmfs[0]
    for other in pmfs[1:]:
        first._check_compatible(other)
    if n is None:
        n = max(p.n for p in pmfs)
    if len(pmfs) == 1:
        return first.truncate(n)
    total = sum(p.n for p in pmfs) - len(pmfs) + 1
    m = 1
    while m < total:
        m *= 2
    acc = None
    for p in pmfs:
        f = np.fft.rfft(p.probs, m)
        acc = f if acc is None else acc * f
    out = np.fft.irfft(acc, m)[:n]
    # FFT round-off can leave tiny negatives / a sum epsilon above 1.
    out = np.clip(out, 0.0, None)
    total_mass = out.sum()
    if total_mass > 1.0:
        out = out / total_mass
    return GridPMF(first.dt, out)


class GridDistribution(Distribution):
    """Adapter exposing a :class:`GridPMF` as a :class:`Distribution`.

    The transform is that of the lattice measure, ``sum_k p_k e^{-s k dt}``
    (exact for the discretised law), which lets grid-computed objects --
    e.g. the exact accept()-wait equilibrium distribution -- re-enter
    transform-domain composition.
    """

    __slots__ = ("grid", "_token")

    def __init__(self, grid: GridPMF) -> None:
        self.grid = grid
        self._token: tuple | None = None

    def cache_token(self) -> tuple:
        # probs is frozen, so the hash is computed lazily exactly once.
        if self._token is None:
            self._token = (
                "gridpmf",
                self.grid.dt,
                self.grid.n,
                hash(self.grid.probs.tobytes()),
            )
        return self._token

    @property
    def mean(self) -> float:
        return self.grid.mean

    @property
    def second_moment(self) -> float:
        return float(np.dot(self.grid.times**2, self.grid.probs))

    @property
    def atom_at_zero(self) -> float:
        return float(self.grid.probs[0])

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        support = self.grid.probs > 0.0
        times = self.grid.times[support]
        probs = self.grid.probs[support]
        tail = self.grid.tail_mass
        out = np.exp(-np.multiply.outer(s, times)) @ probs
        if tail > 0.0:
            # Park truncated tail mass at the horizon so the transform
            # stays a proper (sub-stochastic-free) transform.
            out = out + tail * np.exp(-s * self.grid.horizon)
        return out

    def cdf(self, t, **kwargs):
        return self.grid.edge_cdf(t)

    def sample(self, rng: np.random.Generator, size=None):
        probs = self.grid.probs / max(self.grid.probs.sum(), 1e-300)
        idx = rng.choice(self.grid.n, size=size, p=probs)
        return idx * self.grid.dt

    def to_grid(self, dt: float, n: int) -> GridPMF:
        if np.isclose(dt, self.grid.dt, rtol=1e-12, atol=0.0):
            return self.grid.truncate(n)
        return super().to_grid(dt, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridDistribution({self.grid!r})"


def grid_of(dist: Distribution, dt: float, n: int) -> GridPMF:
    """Discretise any :class:`Distribution` onto a grid.

    Composites are discretised *structurally* (convolving / mixing the
    grids of their parts) rather than by differencing an inverted CDF,
    which keeps the grid engine fully independent of the Laplace engine.

    Results are memoised per ``(value token, dt, n)`` -- safe because
    grid PMFs are immutable -- so repeated discretisations of the same
    composite (cross-engine validation, exact accept-wait evaluation)
    cost one traversal.
    """
    return evalcache.cached_grid(dist, dt, n, lambda: _grid_of_uncached(dist, dt, n))


def _grid_of_uncached(dist: Distribution, dt: float, n: int) -> GridPMF:
    # Imported here to avoid a cycle: composite.py does not know about grids.
    from repro.distributions.analytic import Degenerate
    from repro.distributions.composite import (
        Convolution,
        Mixture,
        PoissonCompound,
        Scaled,
        Shifted,
        ZeroInflated,
        Empirical,
    )

    if isinstance(dist, Degenerate):
        return _point_mass(dist.value, dt, n)
    if isinstance(dist, Convolution):
        return convolve_many([grid_of(c, dt, n) for c in dist.components], n=n)
    if isinstance(dist, Mixture):
        n_comp = len(dist.components)
        acc = np.zeros(n)
        for w, c in zip(dist.weights, dist.components):
            acc += w * grid_of(c, dt, n).truncate(n).probs
        return GridPMF(dt, acc)
    if isinstance(dist, ZeroInflated):
        return grid_of(dist.base, dt, n).zero_inflate(dist.miss_ratio)
    if isinstance(dist, PoissonCompound):
        return grid_of(dist.base, dt, n).poisson_compound(dist.rate, n=n)
    if isinstance(dist, Scaled):
        return grid_of(dist.base, dt / dist.factor, n)._with_dt(dt)
    if isinstance(dist, Shifted):
        return convolve_many(
            [grid_of(dist.base, dt, n), _point_mass(dist.shift, dt, n)], n=n
        )
    if isinstance(dist, GridDistribution):
        return dist.to_grid(dt, n)
    if isinstance(dist, Empirical):
        idx = np.floor(dist.samples / dt + 0.5).astype(int)
        probs = np.bincount(np.clip(idx, 0, n - 1), minlength=n).astype(float)
        probs[n - 1] -= np.count_nonzero(idx > n - 1)  # beyond-horizon -> tail
        probs = np.clip(probs, 0.0, None) / dist.samples.size
        return GridPMF(dt, probs)
    # Leaf with a closed-form CDF (Gamma, Exponential, Normal, ...).
    return dist.to_grid(dt, n)


def _point_mass(value: float, dt: float, n: int) -> GridPMF:
    """A point mass at ``value``, split between its two neighbouring
    lattice points in proportion to closeness.

    The split keeps the mean exact, so a constant delay inside a
    convolution shifts the lattice by its true value instead of rounding
    it to a whole bin (an error of up to ``dt / 2`` in time, first order
    in ``dt`` on every CDF it enters).
    """
    probs = np.zeros(n)
    pos = value / dt
    idx = int(np.floor(pos))
    frac = pos - idx
    if idx < n:
        probs[idx] = 1.0 - frac
    if idx + 1 < n:
        probs[idx + 1] = frac
    return GridPMF(dt, probs)


def _with_dt(self: GridPMF, dt: float) -> GridPMF:
    """Reinterpret a grid under a different dt (used by ``Scaled``)."""
    return GridPMF(dt, self.probs)


GridPMF._with_dt = _with_dt  # type: ignore[attr-defined]
