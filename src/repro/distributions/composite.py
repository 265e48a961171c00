"""Composite distributions: the transform-domain composition toolkit.

The paper's model is built from exactly these combinators:

* :class:`ZeroInflated` -- caching: ``index(t) = index_d(t) m + delta(t)
  (1 - m)``; a disk-served latency with probability ``m`` (the miss
  ratio) and a zero atom with probability ``1 - m``.
* :class:`Convolution` -- sequential operations (``parse * index * meta *
  data`` in the paper's notation); product of transforms.
* :class:`PoissonCompound` -- the Poisson-distributed number of *extra*
  data reads inside one union operation; the paper's infinite sum
  ``sum_j p^j e^{-p} / j! (... data^{j+1})`` collapses to the compound
  Poisson transform ``exp(p (L[data](s) - 1))`` multiplying the base
  convolution.
* :class:`Mixture` -- the system-level rate-weighted mixture over
  storage devices (Equation 3).
* :class:`TransformDistribution` -- a distribution *defined by* its
  Laplace transform (and mean), produced by queueing formulas such as
  Pollaczek--Khinchin and the M/M/1/K sojourn time.
* :class:`Empirical` -- observed samples (simulator output, benchmark
  recordings); its transform is the exact transform of the empirical
  measure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.distributions.base import (
    Distribution,
    DistributionError,
    check_non_negative,
    check_probability,
)
from repro.distributions.analytic import Degenerate
from repro.distributions.evalcache import laplace_eval, laplace_many

#: "Token not yet computed" sentinel for the per-instance ``cache_token``
#: memo below.  ``None`` is a *valid* token value ("uncacheable"), so the
#: sentinel must be distinct from it -- and composites travel through
#: pickle (calibration bundles shipped to sweep workers), so it must also
#: survive a round-trip with its identity intact.  ``False`` is both: no
#: ``cache_token`` ever returns a bool, and it unpickles to the singleton.
_UNSET = False


def _child_tokens(components) -> tuple | None:
    """Tokens of every child, or ``None`` if any child is uncacheable."""
    tokens = []
    for c in components:
        token = c.cache_token()
        if token is None:
            return None
        tokens.append(token)
    return tuple(tokens)

__all__ = [
    "Mixture",
    "ZeroInflated",
    "Convolution",
    "PoissonCompound",
    "Scaled",
    "Shifted",
    "TransformDistribution",
    "Empirical",
    "convolve",
    "zero_inflate",
]


class Mixture(Distribution):
    """Probabilistic mixture ``sum_i w_i F_i`` with weights summing to 1."""

    __slots__ = ("components", "weights", "_token")

    def __init__(self, components: Sequence[Distribution], weights) -> None:
        weights = np.asarray(weights, dtype=float)
        components = tuple(components)
        if len(components) == 0 or weights.shape != (len(components),):
            raise DistributionError("need one weight per component")
        if np.any(weights < 0.0) or not np.isclose(weights.sum(), 1.0, atol=1e-9):
            raise DistributionError("weights must be non-negative and sum to 1")
        self.components = components
        self.weights = weights / weights.sum()
        self._token = _UNSET

    @classmethod
    def rate_weighted(
        cls, components: Sequence[Distribution], rates
    ) -> "Mixture":
        """Equation 3 of the paper: weights proportional to request rates."""
        rates = np.asarray(rates, dtype=float)
        if np.any(rates < 0.0) or rates.sum() <= 0.0:
            raise DistributionError("rates must be non-negative with positive sum")
        return cls(components, rates / rates.sum())

    @property
    def mean(self) -> float:
        return float(sum(w * c.mean for w, c in zip(self.weights, self.components)))

    @property
    def second_moment(self) -> float:
        return float(
            sum(w * c.second_moment for w, c in zip(self.weights, self.components))
        )

    @property
    def atom_at_zero(self) -> float:
        return float(
            sum(w * c.atom_at_zero for w, c in zip(self.weights, self.components))
        )

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return all(c.has_laplace for c in self.components)

    def cache_token(self) -> tuple | None:
        # Memoised: the fields are frozen after __init__, and rebuilding
        # the token walks the whole composite tree (the dominant cost of
        # a cache *hit* in deep Equation-3 mixtures).
        token = self._token
        if token is _UNSET:
            children = _child_tokens(self.components)
            token = (
                None
                if children is None
                else ("mix", tuple(self.weights.tolist()), children)
            )
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.zeros_like(s)
        for w, v in zip(self.weights, laplace_many(self.components, s)):
            out = out + w * v
        return out

    def cdf(self, t, **kwargs):
        # Inversion is linear, so when every component would invert its
        # own transform, one inversion of ``sum_i w_i L_i(s)`` serves
        # the whole mixture: one node sum, memo entry and repair.
        if all(type(c).cdf is Distribution.cdf for c in self.components):
            return Distribution.cdf(self, t, **kwargs)
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for w, c in zip(self.weights, self.components):
            out = out + w * np.asarray(c.cdf(t, **kwargs), dtype=float)
        return out[()]

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        choice = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n, dtype=float)
        for i, c in enumerate(self.components):
            mask = choice == i
            k = int(mask.sum())
            if k:
                out[mask] = np.asarray(c.sample(rng, size=k), dtype=float)
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mixture({len(self.components)} components, mean={self.mean:.6g})"


class ZeroInflated(Distribution):
    """``miss_ratio * base + (1 - miss_ratio) * delta(t)``.

    Models an operation served from disk with probability ``miss_ratio``
    and from memory (zero latency) otherwise -- the paper's treatment of
    index lookup, metadata read and data read under caching.
    """

    __slots__ = ("base", "miss_ratio", "_token")

    def __init__(self, base: Distribution, miss_ratio: float) -> None:
        self.base = base
        self.miss_ratio = check_probability("miss_ratio", miss_ratio)
        self._token = _UNSET

    @property
    def mean(self) -> float:
        return self.miss_ratio * self.base.mean

    @property
    def second_moment(self) -> float:
        return self.miss_ratio * self.base.second_moment

    @property
    def atom_at_zero(self) -> float:
        return (1.0 - self.miss_ratio) + self.miss_ratio * self.base.atom_at_zero

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return self.base.has_laplace

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            base = self.base.cache_token()
            token = None if base is None else ("zi", self.miss_ratio, base)
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return self.miss_ratio * laplace_eval(self.base, s) + (1.0 - self.miss_ratio)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        hit = np.where(t >= 0.0, 1.0 - self.miss_ratio, 0.0)
        return (hit + self.miss_ratio * np.asarray(self.base.cdf(t, **kwargs)))[()]

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        miss = rng.random(n) < self.miss_ratio
        out = np.zeros(n, dtype=float)
        k = int(miss.sum())
        if k:
            out[miss] = np.asarray(self.base.sample(rng, size=k), dtype=float)
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZeroInflated({self.base!r}, miss_ratio={self.miss_ratio!r})"


class Convolution(Distribution):
    """Sum of independent components; transform is the product."""

    __slots__ = ("components", "_token")

    def __init__(self, components: Sequence[Distribution]) -> None:
        components = tuple(components)
        if not components:
            raise DistributionError("convolution needs at least one component")
        self.components = components
        self._token = _UNSET

    @property
    def mean(self) -> float:
        return float(sum(c.mean for c in self.components))

    @property
    def second_moment(self) -> float:
        # E[(sum X_i)^2] = sum Var + (sum mean)^2 for independent X_i.
        var = sum(c.variance for c in self.components)
        return float(var + self.mean**2)

    @property
    def atom_at_zero(self) -> float:
        out = 1.0
        for c in self.components:
            out *= c.atom_at_zero
        return out

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return all(c.has_laplace for c in self.components)

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            children = _child_tokens(self.components)
            token = None if children is None else ("conv", children)
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.ones_like(s)
        for v in laplace_many(self.components, s):
            out = out * v
        return out

    def sample(self, rng: np.random.Generator, size=None):
        parts = [np.asarray(c.sample(rng, size=size), dtype=float) for c in self.components]
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Convolution({len(self.components)} components, mean={self.mean:.6g})"


def convolve(*dists: Distribution) -> Distribution:
    """Convolve distributions, flattening nested convolutions and dropping
    exact-zero point masses (identity elements)."""
    flat: list[Distribution] = []
    for d in dists:
        if isinstance(d, Convolution):
            flat.extend(d.components)
        elif isinstance(d, Degenerate) and d.value == 0.0:
            continue
        else:
            flat.append(d)
    if not flat:
        return Degenerate(0.0)
    if len(flat) == 1:
        return flat[0]
    return Convolution(flat)


def zero_inflate(base: Distribution, miss_ratio: float) -> Distribution:
    """Build the cache-aware operation latency, simplifying edge ratios."""
    miss_ratio = check_probability("miss_ratio", miss_ratio)
    if miss_ratio == 0.0:
        return Degenerate(0.0)
    if miss_ratio == 1.0:
        return base
    return ZeroInflated(base, miss_ratio)


class PoissonCompound(Distribution):
    """Random sum of ``N ~ Poisson(rate)`` i.i.d. copies of ``base``.

    Transform ``exp(rate * (L[base](s) - 1))``; this is exactly the
    paper's sum over ``j`` extra data reads weighted by ``p^j e^{-p}/j!``
    once the common ``parse * index * meta * data`` factor is pulled out.
    """

    __slots__ = ("base", "rate", "_token")

    def __init__(self, base: Distribution, rate: float) -> None:
        self.base = base
        self.rate = check_non_negative("rate", rate)
        self._token = _UNSET

    @property
    def mean(self) -> float:
        return self.rate * self.base.mean

    @property
    def second_moment(self) -> float:
        # Var = rate * E[X^2]; mean = rate * E[X].
        return self.rate * self.base.second_moment + self.mean**2

    @property
    def atom_at_zero(self) -> float:
        # N = 0, or every copy is itself zero.
        a = self.base.atom_at_zero
        return float(np.exp(self.rate * (a - 1.0)))

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return self.base.has_laplace

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            base = self.base.cache_token()
            token = None if base is None else ("pois", self.rate, base)
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return np.exp(self.rate * (laplace_eval(self.base, s) - 1.0))

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        counts = rng.poisson(self.rate, size=n)
        total = int(counts.sum())
        out = np.zeros(n, dtype=float)
        if total:
            draws = np.asarray(self.base.sample(rng, size=total), dtype=float)
            idx = np.repeat(np.arange(n), counts)
            np.add.at(out, idx, draws)
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoissonCompound({self.base!r}, rate={self.rate!r})"


class Scaled(Distribution):
    """``c * X`` for a positive constant ``c``."""

    __slots__ = ("base", "factor", "_token")

    def __init__(self, base: Distribution, factor: float) -> None:
        if factor <= 0.0 or not np.isfinite(factor):
            raise DistributionError(f"factor must be positive, got {factor}")
        self.base = base
        self.factor = float(factor)
        self._token = _UNSET

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean

    @property
    def second_moment(self) -> float:
        return self.factor**2 * self.base.second_moment

    @property
    def atom_at_zero(self) -> float:
        return self.base.atom_at_zero

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return self.base.has_laplace

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            base = self.base.cache_token()
            token = None if base is None else ("scale", self.factor, base)
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return laplace_eval(self.base, self.factor * s)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return self.base.cdf(t / self.factor, **kwargs)

    def sample(self, rng: np.random.Generator, size=None):
        return self.factor * np.asarray(self.base.sample(rng, size=size), dtype=float)


class Shifted(Distribution):
    """``X + c`` for a non-negative constant ``c``."""

    __slots__ = ("base", "shift", "_token")

    def __init__(self, base: Distribution, shift: float) -> None:
        self.base = base
        self.shift = check_non_negative("shift", shift)
        self._token = _UNSET

    @property
    def mean(self) -> float:
        return self.base.mean + self.shift

    @property
    def second_moment(self) -> float:
        return self.base.second_moment + 2.0 * self.shift * self.base.mean + self.shift**2

    @property
    def atom_at_zero(self) -> float:
        return self.base.atom_at_zero if self.shift == 0.0 else 0.0

    @property
    def has_laplace(self) -> bool:  # type: ignore[override]
        return self.base.has_laplace

    def cache_token(self) -> tuple | None:
        token = self._token
        if token is _UNSET:
            base = self.base.cache_token()
            token = None if base is None else ("shift", self.shift, base)
            self._token = token
        return token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return np.exp(-s * self.shift) * laplace_eval(self.base, s)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return self.base.cdf(t - self.shift, **kwargs)

    def sample(self, rng: np.random.Generator, size=None):
        return self.shift + np.asarray(self.base.sample(rng, size=size), dtype=float)


class TransformDistribution(Distribution):
    """A distribution defined by a callable Laplace transform.

    Queueing formulas (Pollaczek--Khinchin waiting time, M/M/1/K sojourn
    time) yield transforms rather than densities; this wrapper carries the
    transform together with its analytically known first two moments so
    it can participate in further composition, and evaluates its CDF by
    numerical inversion.

    ``second_moment`` may be a zero-argument callable, evaluated on the
    first read (some producers' second moments cost more than the rest
    of the queue solve and are rarely read).  ``lattice``, when given,
    is the producer's own discretisation ``(dt, n) -> GridPMF``, which
    :meth:`to_grid` uses instead of differencing the inverted CDF; the
    transform, moments and token do not depend on it.
    """

    __slots__ = (
        "_laplace", "_mean", "_second_moment", "_atom", "name", "_token", "_lattice"
    )

    def __init__(
        self,
        laplace: Callable[[np.ndarray], np.ndarray],
        mean: float,
        second_moment: float | Callable[[], float] | None = None,
        *,
        atom_at_zero: float = 0.0,
        name: str = "transform",
        token: tuple | None = None,
        lattice: Callable[[float, int], object] | None = None,
    ) -> None:
        self._laplace = laplace
        self._mean = check_non_negative("mean", mean)
        if second_moment is None:
            second_moment = _second_moment_from_transform(laplace, self._mean)
        if not callable(second_moment):
            second_moment = check_non_negative("second_moment", second_moment)
        self._second_moment = second_moment
        self._atom = check_probability("atom_at_zero", atom_at_zero)
        self.name = str(name)
        # The wrapped closure is opaque, so value identity cannot be
        # derived; producers (the queueing formulas) pass an explicit
        # token built from their own parameters to opt into memoisation.
        self._token = token
        self._lattice = lattice

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def second_moment(self) -> float:
        second = self._second_moment
        if callable(second):
            second = check_non_negative("second_moment", second())
            self._second_moment = second
        return second

    @property
    def atom_at_zero(self) -> float:
        return self._atom

    def cache_token(self) -> tuple | None:
        return self._token

    def laplace(self, s):
        return self._laplace(np.asarray(s, dtype=complex))

    def to_grid(self, dt: float, n: int):
        if self._lattice is None:
            return super().to_grid(dt, n)
        return self._lattice(dt, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransformDistribution({self.name!r}, mean={self._mean:.6g})"


def _second_moment_from_transform(
    laplace: Callable[[np.ndarray], np.ndarray], mean: float
) -> float:
    """Estimate ``E[X^2] = L''(0)`` by a real central finite difference.

    The step is scaled by the mean so the stencil sits where the
    transform still has curvature; accuracy of a few significant digits
    suffices (the second moment only feeds approximations and reports).
    """
    h = 1e-3 / max(mean, 1e-12)
    s = np.asarray([0.0, h, 2.0 * h], dtype=complex)
    vals = np.real(laplace(s))
    d2 = (vals[2] - 2.0 * vals[1] + vals[0]) / (h * h)
    return float(max(d2, mean * mean))


class Empirical(Distribution):
    """Empirical distribution of observed latency samples.

    ``laplace`` is the exact transform of the empirical measure
    ``mean(exp(-s x_i))`` (vectorised); the CDF is the step function.
    Used to feed measured disk service times straight into the model as
    an alternative to parametric fitting, and heavily in the tests.
    """

    __slots__ = ("samples", "_token")

    #: Beyond this many samples, ``laplace`` subsamples deterministically
    #: to bound cost (the transform of 4096 stratified order statistics
    #: is indistinguishable for our purposes).
    MAX_TRANSFORM_SAMPLES = 4096

    def __init__(self, samples) -> None:
        samples = np.sort(np.asarray(samples, dtype=float).ravel())
        if samples.size == 0:
            raise DistributionError("need at least one sample")
        if np.any(samples < 0.0) or not np.all(np.isfinite(samples)):
            raise DistributionError("samples must be finite and non-negative")
        # Frozen: the lazy cache token below hashes the sample bytes, so
        # an in-place mutation after the token is computed would silently
        # alias cached results of the *old* samples.  Writing raises.
        samples.setflags(write=False)
        self.samples = samples
        self._token: tuple | None = None

    def cache_token(self) -> tuple:
        # Hash of the sorted sample bytes: computed lazily, once -- the
        # samples array is read-only after construction.
        if self._token is None:
            self._token = ("emp", self.samples.size, hash(self.samples.tobytes()))
        return self._token

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.samples**2))

    @property
    def atom_at_zero(self) -> float:
        return float(np.count_nonzero(self.samples == 0.0)) / self.samples.size

    def _transform_points(self) -> np.ndarray:
        n = self.samples.size
        if n <= self.MAX_TRANSFORM_SAMPLES:
            return self.samples
        idx = np.linspace(0, n - 1, self.MAX_TRANSFORM_SAMPLES).round().astype(int)
        return self.samples[idx]

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        pts = self._transform_points()
        return np.exp(-np.multiply.outer(s, pts)).mean(axis=-1)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return (np.searchsorted(self.samples, t, side="right") / self.samples.size)[()]

    def quantile(self, q: float, **kwargs) -> float:
        if not 0.0 <= q < 1.0:
            raise DistributionError(f"quantile level must be in [0, 1), got {q}")
        return float(np.quantile(self.samples, q))

    def sample(self, rng: np.random.Generator, size=None):
        return rng.choice(self.samples, size=size, replace=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Empirical(n={self.samples.size}, mean={self.mean:.6g})"
