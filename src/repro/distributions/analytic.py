"""Closed-form latency distributions.

These are the distribution families Section IV of the paper considers when
fitting benchmarked disk service times (Exponential, Degenerate, Normal,
Gamma), plus the families needed elsewhere in the reproduction:

* :class:`Gamma` -- the family that fits disk service times best (Fig 5);
  its Laplace transform ``l^k (s + l)^{-k}`` is quoted in the paper.
* :class:`Degenerate` -- request-parsing latency on the testbed is "almost
  constant"; also used as the zero-latency memory hit (``Degenerate(0)``).
* :class:`Exponential` -- M/M/* service times and sanity baselines.
* :class:`Normal` -- candidate fit; its transform is the (two-sided) MGF,
  an adequate approximation when ``mu >> sigma`` as for disk latencies.
* :class:`Lognormal` -- candidate fit for object sizes and heavy-ish
  tails; it has no closed-form transform (``has_laplace = False``) but is
  fully usable for fitting, sampling and grid-domain work.
* :class:`Hyperexponential` -- a high-variance family used by the
  M/G/1/K two-moment machinery.
* :class:`Erlang` -- integer-shape Gamma, used in tests against textbook
  results.
* :class:`Uniform` -- used by workload generators and property tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _special

from repro.distributions.base import (
    Distribution,
    DistributionError,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "Degenerate",
    "Exponential",
    "Gamma",
    "Erlang",
    "Normal",
    "Lognormal",
    "Hyperexponential",
    "Uniform",
]


def _standard_cdf(x, lower: float, valid: bool, kernel) -> np.ndarray:
    """``scipy.stats.rv_continuous.cdf`` on a standardised ``x``.

    ``x`` is ``(t - loc) / scale``, computed by the caller as scipy does.
    The masks are scipy's, applied in its order: invalid parameters or a
    NaN ``x`` give NaN, ``x >= inf`` gives 1, the open support
    ``(lower, inf)`` gives ``kernel(x)`` and everything else 0.  With the
    same ``scipy.special`` kernel every value is bit-identical to
    scipy's, without importing ``scipy.stats``.  A 0-d ``x`` returns a
    numpy scalar, like scipy.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    with np.errstate(invalid="ignore"):
        out[np.isnan(x) | (not valid)] = np.nan
        if valid:
            out[x >= np.inf] = 1.0
            inside = (lower < x) & (x < np.inf)
            if inside.any():
                out[inside] = kernel(x[inside])
    return out[()]


class Degenerate(Distribution):
    """Point mass at ``value`` (the paper's Dirac delta ``delta(t - c)``).

    ``Degenerate(0)`` models a memory hit: the paper approximates memory
    latency with zero.  The Laplace transform is ``exp(-s c)``.
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = check_non_negative("value", value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def second_moment(self) -> float:
        return self.value**2

    @property
    def atom_at_zero(self) -> float:
        return 1.0 if self.value == 0.0 else 0.0

    def cache_token(self) -> tuple:
        return ("deg", self.value)

    def laplace(self, s):
        return np.exp(-np.asarray(s, dtype=complex) * self.value)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.value, 1.0, 0.0)[()]

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Degenerate({self.value!r})"


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``)."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        self.rate = check_positive("rate", rate)

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Construct from the mean rather than the rate."""
        return cls(1.0 / check_positive("mean", mean))

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate**2

    def cache_token(self) -> tuple:
        return ("exp", self.rate)

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return self.rate / (self.rate + s)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)[()]

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Exponential(rate={self.rate!r})"


class Gamma(Distribution):
    """Gamma distribution with shape ``k`` and *rate* ``l``.

    The paper parameterises by shape ``k`` and rate ``l`` with transform
    ``L[B](s) = l^k (s + l)^{-k}`` and mean ``k / l``; we follow that
    convention (note scipy uses scale ``1/l``).
    """

    __slots__ = ("shape", "rate")

    def __init__(self, shape: float, rate: float) -> None:
        self.shape = check_positive("shape", shape)
        self.rate = check_positive("rate", rate)

    @classmethod
    def from_mean_scv(cls, mean: float, scv: float) -> "Gamma":
        """Two-moment fit: shape ``1/scv`` and rate ``shape/mean``."""
        mean = check_positive("mean", mean)
        scv = check_positive("scv", scv)
        shape = 1.0 / scv
        return cls(shape, shape / mean)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def second_moment(self) -> float:
        return self.shape * (self.shape + 1.0) / self.rate**2

    def cache_token(self) -> tuple:
        return ("gamma", self.shape, self.rate)

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        # (1 + s/l)^{-k} is better conditioned than l^k (s+l)^{-k}.
        return (1.0 + s / self.rate) ** (-self.shape)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        scale = 1.0 / self.rate
        return _standard_cdf(
            (t - 0) / scale, 0.0, self.shape > 0 and scale > 0,
            lambda x: _special.gammainc(self.shape, x),
        )

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gamma(shape={self.shape!r}, rate={self.rate!r})"


class Erlang(Gamma):
    """Erlang distribution: a Gamma with integer shape ``stages``.

    The sojourn time of an accepted M/M/1/K customer that finds ``i``
    customers in the system is Erlang(``i + 1``); tests use this identity
    to validate the M/M/1/K transform.
    """

    __slots__ = ()

    def __init__(self, stages: int, rate: float) -> None:
        if int(stages) != stages or stages < 1:
            raise DistributionError(f"stages must be a positive integer, got {stages}")
        super().__init__(float(stages), rate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Erlang(stages={int(self.shape)}, rate={self.rate!r})"


class Normal(Distribution):
    """Normal distribution, truncation-free.

    Disk latencies are strictly positive; when ``mu >> sigma`` the mass
    below zero is negligible and the two-sided MGF ``exp(-mu s + sigma^2
    s^2 / 2)`` is an excellent approximation of the Laplace transform of
    the (implicitly truncated) density.  Construction rejects parameter
    combinations where more than ~0.1% of mass would fall below zero,
    which keeps the approximation honest.
    """

    __slots__ = ("mu", "sigma")

    #: Maximum tolerated probability mass below zero.
    MAX_NEGATIVE_MASS = 1e-3

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = check_positive("mu", mu)
        self.sigma = check_positive("sigma", sigma)
        neg = self.cdf(0.0)
        if neg > self.MAX_NEGATIVE_MASS:
            raise DistributionError(
                "Normal latency model requires mu >> sigma; "
                f"P(X<0)={neg:.3g} exceeds {self.MAX_NEGATIVE_MASS}"
            )

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def second_moment(self) -> float:
        return self.mu**2 + self.sigma**2

    def cache_token(self) -> tuple:
        return ("norm", self.mu, self.sigma)

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        return np.exp(-self.mu * s + 0.5 * (self.sigma * s) ** 2)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return _standard_cdf(
            (t - self.mu) / self.sigma, -np.inf, self.sigma > 0, _special.ndtr
        )

    def sample(self, rng: np.random.Generator, size=None):
        out = rng.normal(self.mu, self.sigma, size=size)
        return np.maximum(out, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Normal(mu={self.mu!r}, sigma={self.sigma!r})"


class Lognormal(Distribution):
    """Lognormal distribution (no closed-form Laplace transform).

    Used for object-size modelling (the synthetic Wikipedia trace) and as
    a fitting candidate.  ``laplace`` raises; grid/FFT composition and
    sampling remain available.
    """

    __slots__ = ("mu", "sigma")

    has_laplace = False

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = float(mu)
        self.sigma = check_positive("sigma", sigma)
        if not np.isfinite(self.mu):
            raise DistributionError(f"mu must be finite, got {mu}")

    @classmethod
    def from_mean_median(cls, mean: float, median: float) -> "Lognormal":
        """Construct from the mean and median (both positive, mean > median)."""
        mean = check_positive("mean", mean)
        median = check_positive("median", median)
        if mean <= median:
            raise DistributionError("lognormal requires mean > median")
        mu = math.log(median)
        sigma = math.sqrt(2.0 * (math.log(mean) - mu))
        return cls(mu, sigma)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    @property
    def second_moment(self) -> float:
        return math.exp(2.0 * self.mu + 2.0 * self.sigma**2)

    def cache_token(self) -> tuple:
        return ("lognorm", self.mu, self.sigma)

    def laplace(self, s):
        raise DistributionError("Lognormal has no closed-form Laplace transform")

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        scale = math.exp(self.mu)
        return _standard_cdf(
            (t - 0) / scale, 0.0, self.sigma > 0 and scale > 0,
            lambda x: _special.ndtr(np.log(x) / self.sigma),
        )

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Lognormal(mu={self.mu!r}, sigma={self.sigma!r})"


class Hyperexponential(Distribution):
    """Mixture of exponentials: with prob ``p_i`` an Exp(``rate_i``).

    The workhorse high-variance (SCV > 1) phase-type family; the
    two-moment M/G/1/K machinery fits a balanced-means H2 when the
    service SCV exceeds one.
    """

    __slots__ = ("probs", "rates")

    def __init__(self, probs, rates) -> None:
        probs = np.asarray(probs, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if probs.shape != rates.shape or probs.ndim != 1 or probs.size == 0:
            raise DistributionError("probs and rates must be equal-length 1-D arrays")
        if np.any(probs < 0.0) or not np.isclose(probs.sum(), 1.0, atol=1e-9):
            raise DistributionError("probs must be non-negative and sum to 1")
        if np.any(rates <= 0.0):
            raise DistributionError("rates must be positive")
        self.probs = probs
        self.rates = rates

    @classmethod
    def from_mean_scv(cls, mean: float, scv: float) -> "Hyperexponential":
        """Balanced-means two-phase fit for ``scv >= 1``."""
        mean = check_positive("mean", mean)
        if scv < 1.0:
            raise DistributionError("hyperexponential fit requires scv >= 1")
        p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        r1 = 2.0 * p / mean
        r2 = 2.0 * (1.0 - p) / mean
        return cls([p, 1.0 - p], [r1, r2])

    @property
    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    @property
    def second_moment(self) -> float:
        return float(np.sum(2.0 * self.probs / self.rates**2))

    def cache_token(self) -> tuple:
        return ("hyperexp", tuple(self.probs.tolist()), tuple(self.rates.tolist()))

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.zeros_like(s)
        for p, r in zip(self.probs, self.rates):
            out = out + p * (r / (r + s))
        return out

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        tt = np.maximum(t, 0.0)
        out = np.zeros_like(tt)
        for p, r in zip(self.probs, self.rates):
            out = out + p * -np.expm1(-r * tt)
        return np.where(t >= 0.0, out, 0.0)[()]

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        phases = rng.choice(self.rates.size, size=n, p=self.probs)
        out = rng.exponential(1.0, size=n) / self.rates[phases]
        if scalar:
            return float(out[0])
        return out.reshape(size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hyperexponential(probs={self.probs.tolist()}, rates={self.rates.tolist()})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        self.low = check_non_negative("low", low)
        self.high = float(high)
        if not np.isfinite(self.high) or self.high <= self.low:
            raise DistributionError(f"need low < high, got [{low}, {high}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def second_moment(self) -> float:
        a, b = self.low, self.high
        return (a * a + a * b + b * b) / 3.0

    def cache_token(self) -> tuple:
        return ("unif", self.low, self.high)

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        width = self.high - self.low
        out = np.empty_like(s)
        small = np.abs(s) * width < 1e-8
        snz = np.where(small, 1.0, s)
        out = (np.exp(-snz * self.low) - np.exp(-snz * self.high)) / (snz * width)
        mid = 0.5 * (self.low + self.high)
        return np.where(small, np.exp(-np.asarray(s) * mid), out)

    def cdf(self, t, **kwargs):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.low) / (self.high - self.low), 0.0, 1.0)[()]

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.low, self.high, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Uniform(low={self.low!r}, high={self.high!r})"
