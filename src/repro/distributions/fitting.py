"""Distribution fitting for benchmarked latencies (Section IV-A / Fig 5).

The paper benchmarks disk service times per operation type (index lookup,
metadata read, data read), then fits candidate families -- Exponential,
Degenerate, Normal, Gamma -- and selects the best.  On their testbed the
Gamma wins; Fig 5 overlays the fitted Gamma CDFs on the recorded CDFs.

This module reproduces that pipeline: per-family maximum-likelihood /
moment fits, a Kolmogorov--Smirnov goodness score, and a selector that
returns every candidate ranked so the Fig 5 harness can show the winner
and the also-rans.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np
from scipy import special as _special

from repro.distributions.base import Distribution, DistributionError
from repro.distributions.analytic import (
    Degenerate,
    Exponential,
    Gamma,
    Lognormal,
    Normal,
)

__all__ = [
    "FitResult",
    "fit_gamma",
    "fit_exponential",
    "fit_degenerate",
    "fit_normal",
    "fit_lognormal",
    "fit_best",
    "ks_statistic",
    "DEFAULT_FAMILIES",
]


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one family to a sample set."""

    family: str
    distribution: Distribution
    ks_statistic: float
    n_samples: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.family}: {self.distribution!r} "
            f"(KS={self.ks_statistic:.4f}, n={self.n_samples})"
        )


def _validate(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise DistributionError("need at least two samples to fit")
    if np.any(samples < 0.0) or not np.all(np.isfinite(samples)):
        raise DistributionError("samples must be finite and non-negative")
    return samples


def ks_statistic(samples, dist: Distribution) -> float:
    """Two-sided Kolmogorov--Smirnov distance between samples and model."""
    samples = np.sort(_validate(samples))
    n = samples.size
    cdf = np.asarray(dist.cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def fit_gamma(samples) -> FitResult:
    """Maximum-likelihood Gamma fit with location pinned at zero."""
    samples = _validate(samples)
    positive = samples[samples > 0.0]
    dist: Distribution | None = None
    if positive.size >= 2 and _relative_spread(positive) > 1e-9:
        try:
            with np.errstate(invalid="ignore", divide="ignore"):
                shape, scale = _gamma_mle(positive)
            dist = Gamma(shape, 1.0 / scale)
        except ValueError:
            dist = None  # MLE diverges on (near-)constant data
    if dist is None:
        # Moment fallback: a huge-shape Gamma approximating a point mass.
        mean = float(samples.mean())
        dist = Gamma(1e6, 1e6 / max(mean, 1e-12))
    return FitResult("gamma", dist, ks_statistic(samples, dist), samples.size)


def _gamma_mle(data: np.ndarray) -> tuple[float, float]:
    """Shape and scale of ``scipy.stats.gamma.fit(data, floc=0)``.

    scipy's explicit fixed-location MLE, step for step, for finite
    positive ``data``: the shape solves ``log(a) - digamma(a) = s`` on
    scipy's bracket around the closed-form estimate ``aest``, and the
    scale is ``mean / a``.  Same operations in the same order and a
    line-for-line ``brentq`` give bit-identical floats without
    importing ``scipy.stats``; ``ValueError`` is raised exactly where
    scipy raises it.
    """
    xbar = data.mean()
    s = np.log(xbar) - np.log(data).mean()
    aest = (3-s + np.sqrt((s-3)**2 + 24*s)) / (12*s)
    xa = aest*(1-0.4)
    xb = aest*(1+0.4)
    a = _brentq(lambda a: np.log(a) - _special.digamma(a) - s, xa, xb)
    return a, xbar / a


def _brentq(f, xa, xb, xtol=2e-12, maxiter=100):
    """Port of scipy's C ``brentq`` with ``disp=False``, line for line.

    ``xtol``, ``maxiter`` and the fixed ``rtol = 4 eps`` are
    ``scipy.optimize.brentq``'s defaults.  Every float operation
    matches the C source in kind and order (numpy float64 arithmetic, so
    a zero divisor gives inf or NaN as in C rather than raising), so the
    root is bit-identical.  Raises ``ValueError`` where scipy does: a NaN
    function value at any evaluation, or ``f(xa)`` and ``f(xb)`` of the
    same sign.  When ``maxiter`` runs out the last iterate is returned.
    """

    def call(x):
        x = float(x)
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return np.float64(fx)

    rtol = 4 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        xpre = np.float64(xa)
        xcur = np.float64(xb)
        xblk = fblk = spre = scur = np.float64(0.0)
        fpre = call(xpre)
        fcur = call(xcur)
        if fpre == 0:
            return float(xpre)
        if fcur == 0:
            return float(xcur)
        if np.signbit(fpre) == np.signbit(fcur):
            raise ValueError("f(a) and f(b) must have different signs")
        for _ in range(maxiter):
            if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
                xblk = xpre
                fblk = fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre = xcur
                xcur = xblk
                xblk = xpre

                fpre = fcur
                fcur = fblk
                fblk = fpre

            delta = (xtol + rtol*abs(xcur))/2
            sbis = (xblk - xcur)/2
            if fcur == 0 or abs(sbis) < delta:
                return float(xcur)

            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:
                    # interpolate
                    stry = -fcur*(xcur - xpre)/(fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur)/(xpre - xcur)
                    dblk = (fblk - fcur)/(xblk - xcur)
                    stry = (-fcur*(fblk*dblk - fpre*dpre)
                            / (dblk*dpre*(fblk - fpre)))
                bound = 3*abs(sbis) - delta
                if 2*abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                    # good short step
                    spre = scur
                    scur = stry
                else:
                    # bisect
                    spre = sbis
                    scur = sbis
            else:
                # bisect
                spre = sbis
                scur = sbis

            xpre = xcur
            fpre = fcur
            if abs(scur) > delta:
                xcur += scur
            else:
                xcur += (delta if sbis > 0 else -delta)

            fcur = call(xcur)
    return float(xcur)


def fit_exponential(samples) -> FitResult:
    """Moment (= ML) Exponential fit with location pinned at zero."""
    samples = _validate(samples)
    mean = float(samples.mean())
    if mean <= 0.0:
        raise DistributionError("exponential fit needs a positive mean")
    dist = Exponential(1.0 / mean)
    return FitResult("exponential", dist, ks_statistic(samples, dist), samples.size)


def _relative_spread(samples: np.ndarray) -> float:
    """Peak-to-peak spread relative to the mean magnitude.

    Distinguishes genuinely constant data (spread is float round-off)
    from merely low-variance data; the degenerate fit and the gamma MLE
    guard both key off this.
    """
    scale = max(abs(float(samples.mean())), 1e-300)
    return float(np.ptp(samples)) / scale


def fit_degenerate(samples) -> FitResult:
    """Point-mass fit at the sample mean.

    The paper finds request-parsing latency "almost constant" and models
    it as Degenerate; the KS statistic of this fit is what tells you
    whether that is tenable for your own data.  Samples whose spread is
    within float round-off of zero score a perfect KS of 0 (the naive
    step-function comparison would otherwise charge the atom ~0.5 for
    1-ulp jitter).
    """
    samples = _validate(samples)
    dist = Degenerate(float(samples.mean()))
    if _relative_spread(samples) <= 1e-9:
        return FitResult("degenerate", dist, 0.0, samples.size)
    return FitResult("degenerate", dist, ks_statistic(samples, dist), samples.size)


def fit_normal(samples) -> FitResult:
    """Moment Normal fit; falls back to Degenerate when mu >> sigma fails."""
    samples = _validate(samples)
    mu = float(samples.mean())
    sigma = float(samples.std(ddof=1))
    try:
        dist: Distribution = Normal(mu, sigma)
    except DistributionError:
        dist = Degenerate(mu)
    return FitResult("normal", dist, ks_statistic(samples, dist), samples.size)


def fit_lognormal(samples) -> FitResult:
    """Log-moment Lognormal fit (positive samples only)."""
    samples = _validate(samples)
    positive = samples[samples > 0.0]
    if positive.size < 2:
        raise DistributionError("lognormal fit needs >= 2 positive samples")
    logs = np.log(positive)
    sigma = float(logs.std(ddof=1))
    if sigma <= 0.0:
        sigma = 1e-9
    dist = Lognormal(float(logs.mean()), sigma)
    return FitResult("lognormal", dist, ks_statistic(samples, dist), samples.size)


#: The candidate families Section IV-A of the paper evaluates.
DEFAULT_FAMILIES: dict[str, Callable[[Sequence[float]], FitResult]] = {
    "gamma": fit_gamma,
    "exponential": fit_exponential,
    "degenerate": fit_degenerate,
    "normal": fit_normal,
}


def fit_best(
    samples,
    families: dict[str, Callable[[Sequence[float]], FitResult]] | None = None,
) -> list[FitResult]:
    """Fit every candidate family and rank by KS statistic (best first).

    Families whose fit raises (e.g. lognormal on all-zero data) are
    silently skipped; at least one family must succeed.
    """
    families = DEFAULT_FAMILIES if families is None else families
    results: list[FitResult] = []
    for fitter in families.values():
        try:
            results.append(fitter(samples))
        except DistributionError:
            continue
    if not results:
        raise DistributionError("no candidate family could be fitted")
    results.sort(key=lambda r: r.ks_statistic)
    return results
