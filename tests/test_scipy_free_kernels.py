"""The scipy.stats-free kernels equal scipy bit for bit.

``Gamma``/``Normal``/``Lognormal`` cdfs, Normal's negative-mass check,
the Wilson ``z`` and the Gamma MLE are computed from ``scipy.special``
kernels so that importing the package never loads ``scipy.stats`` or
``scipy.optimize`` (a large share of a cold start).  Those two modules
are imported here only as oracles: every value must match them bit for
bit, including scalar-vs-array return types, NaN/inf/subnormal edges
and the exceptions the Gamma fit's fallback keys off.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as spo
from scipy import special as spsp
from scipy import stats as sps

from repro.distributions import DistributionError, Gamma, Lognormal, Normal, fit_gamma
from repro.distributions.fitting import _brentq, _gamma_mle, _relative_spread
from repro.simulator import metrics

EDGE_TIMES = [
    0.0, -0.0, -1.0, -5e-324, 5e-324, 2.2250738585072014e-308, 1e-300,
    1e-12, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def same(ours, theirs) -> bool:
    """Equal type, dtype, shape and bytes (so -0.0 != 0.0, NaN == NaN)."""
    if type(ours) is not type(theirs):
        return False
    a, b = np.asarray(ours), np.asarray(theirs)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def times_for(scale: float, seed: int) -> np.ndarray:
    """Edge times plus random times around ``scale`` (some negative)."""
    rng = np.random.default_rng(seed)
    spread = scale * np.exp(rng.uniform(-8.0, 4.0, size=40))
    return np.concatenate([EDGE_TIMES, spread, -spread[:5], [scale]])


def check_cdf(dist, oracle, times) -> None:
    assert same(dist.cdf(times), oracle(times))
    assert same(dist.cdf(times.reshape(2, -1)), oracle(times.reshape(2, -1)))
    assert same(dist.cdf(times[:0]), oracle(times[:0]))
    for t in times[:: max(1, times.size // 12)].tolist() + EDGE_TIMES:
        assert same(dist.cdf(t), oracle(t))
        assert same(dist.cdf(np.float64(t)), oracle(np.float64(t)))


class TestCdfs:
    @given(log_uniform(1e-3, 1e5), log_uniform(1e-4, 1e7), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_gamma(self, shape, rate, seed):
        oracle = lambda t: sps.gamma.cdf(np.asarray(t, dtype=float), shape, scale=1.0 / rate)[()]
        check_cdf(Gamma(shape, rate), oracle, times_for(shape / rate, seed))

    @given(log_uniform(1e-6, 1e6), st.floats(3.1, 1e4), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_normal(self, mu, ratio, seed):
        sigma = mu / ratio
        oracle = lambda t: sps.norm.cdf(np.asarray(t, dtype=float), loc=mu, scale=sigma)[()]
        check_cdf(Normal(mu, sigma), oracle, times_for(mu, seed))

    @given(st.floats(-800.0, 709.0), log_uniform(1e-3, 20.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_lognormal(self, mu, sigma, seed):
        # mu < ~-745 takes exp(mu) to 0: scipy's invalid-scale path (NaN
        # everywhere) must be reproduced too.
        oracle = lambda t: sps.lognorm.cdf(
            np.asarray(t, dtype=float), sigma, scale=math.exp(mu)
        )[()]
        scale = math.exp(mu) if -700.0 < mu < 700.0 else 1.0
        check_cdf(Lognormal(mu, sigma), oracle, times_for(scale, seed))

    def test_lognormal_exp_edges(self):
        for mu in (-746.0, -745.0, -700.0, 709.0, 709.78):
            oracle = lambda t: sps.lognorm.cdf(np.asarray(t, dtype=float), 1.5, scale=math.exp(mu))[()]
            check_cdf(Lognormal(mu, 1.5), oracle, times_for(1.0, 0))
        with pytest.raises(OverflowError):  # math.exp(mu), as before
            Lognormal(710.0, 1.5).cdf(1.0)

    @given(log_uniform(1e-8, 1e8), log_uniform(1e-8, 1e8))
    @settings(max_examples=400, deadline=None)
    def test_normal_accept_reject(self, mu, sigma):
        neg = sps.norm.cdf(0.0, loc=mu, scale=sigma)
        if neg > Normal.MAX_NEGATIVE_MASS:
            with pytest.raises(DistributionError, match=f"P\\(X<0\\)={neg:.3g} "):
                Normal(mu, sigma)
        else:
            Normal(mu, sigma)

    def test_normal_accept_reject_at_the_threshold(self):
        # z where ndtr(z) sits at 1e-3: mu/sigma a few ulps either side.
        z = -sps.norm.ppf(Normal.MAX_NEGATIVE_MASS)
        for ratio in np.nextafter(z, np.inf) + np.arange(-6, 7) * np.spacing(z):
            neg = sps.norm.cdf(0.0, loc=float(ratio), scale=1.0)
            rejected = neg > Normal.MAX_NEGATIVE_MASS
            try:
                Normal(float(ratio), 1.0)
                raised = False
            except DistributionError:
                raised = True
            assert raised == rejected


class TestWilsonZ:
    @given(st.floats(-1.5, 1.5))
    @settings(max_examples=300, deadline=None)
    def test_equals_norm_ppf(self, confidence):
        metrics._Z_CACHE.pop(confidence, None)
        expected = float(sps.norm.ppf(0.5 + confidence / 2.0))
        assert same(metrics._wilson_z(confidence), expected)

    @pytest.mark.parametrize(
        "confidence", [0.0, -0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0, -1.0, 1.2, math.nan]
    )
    def test_edges(self, confidence):
        metrics._Z_CACHE.clear()
        expected = float(sps.norm.ppf(0.5 + confidence / 2.0))
        assert same(metrics._wilson_z(confidence), expected)


def scipy_gamma_fit(data):
    with np.errstate(all="ignore"):
        a, _loc, scale = sps.gamma.fit(data, floc=0.0)
    return a, scale


def check_mle(data) -> None:
    """``_gamma_mle`` equals ``gamma.fit(floc=0)`` or raises where it does."""
    data = np.asarray(data, dtype=float)
    try:
        expected = scipy_gamma_fit(data)
    except ValueError:
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            _gamma_mle(data)
        return
    with np.errstate(all="ignore"):
        got = _gamma_mle(data)
    assert same(got[0], expected[0]) and same(got[1], expected[1]), (got, expected)


SAMPLERS = {
    "gamma": lambda rng, p, n: rng.gamma(p, 0.01, size=n),
    "lognormal": lambda rng, p, n: rng.lognormal(-4.0, p, size=n),
    "pareto": lambda rng, p, n: 0.003 * (1.0 + rng.pareto(p, size=n)),
    "shifted_exponential": lambda rng, p, n: 0.002 + rng.exponential(0.01 * p, size=n),
    "two_sample": lambda rng, p, n: np.resize([0.01, 0.01 * (1.0 + p)], n),
    "near_constant": lambda rng, p, n: 0.01 * (1.0 + 1e-10 * p * rng.random(n)),
}


class TestGammaMle:
    @given(
        st.sampled_from(sorted(SAMPLERS)),
        log_uniform(0.05, 50.0),
        st.integers(2, 3000),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy(self, family, param, n, seed):
        rng = np.random.default_rng(seed)
        check_mle(SAMPLERS[family](rng, param, n))

    @given(st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_on_arbitrary_positive_data(self, values):
        check_mle(values)

    @pytest.mark.parametrize(
        "data",
        [
            [0.01, 0.01],
            [0.01, 0.01, 0.01 * (1 + 1e-15)],
            [1.0, 2.0],
            [1e-300, 1e300],
            [5e-324, 1.0],
            [3.0] * 50 + [3.0000000001],
        ],
    )
    def test_degenerate_data(self, data):
        check_mle(data)

    @given(st.sampled_from(sorted(SAMPLERS)), log_uniform(0.05, 50.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fit_gamma_end_to_end(self, family, param, seed):
        samples = SAMPLERS[family](np.random.default_rng(seed), param, 200)
        samples[::17] = 0.0  # zeros are dropped before the MLE
        positive = samples[samples > 0.0]
        expected = Gamma(1e6, 1e6 / max(float(samples.mean()), 1e-12))  # fallback
        if _relative_spread(positive) > 1e-9:
            try:
                a, scale = scipy_gamma_fit(positive)
                expected = Gamma(a, 1.0 / scale)
            except ValueError:
                pass
        fit = fit_gamma(samples).distribution
        assert same(fit.shape, expected.shape) and same(fit.rate, expected.rate)


TEXTBOOK = {
    "sqrt2": (lambda x: x * x - 2.0, 0.0, 2.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "wallis": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "exp": (lambda x: math.exp(x) - 2.0, -4.0, 4.0),
    "tanh": (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
    "kepler": (lambda x: x - 0.9 * math.sin(x) - 0.5, 0.0, 3.0),
    "flat": (lambda x: (x - 1.0) ** 7, 0.0, 3.0),
    "step": (lambda x: -1.0 if x < 0.7 else 1.0, 0.0, 1.0),
    "root_at_a": (lambda x: x - 1.0, 1.0, 2.0),
    "root_at_b": (lambda x: x - 2.0, 1.0, 2.0),
    "digamma": (lambda x: np.log(x) - spsp.digamma(x) - 0.1, 2.0, 8.0),
}


class TestBrentq:
    @pytest.mark.parametrize("name", sorted(TEXTBOOK))
    @pytest.mark.parametrize("maxiter", [0, 1, 2, 3, 5, 8, 100])
    def test_textbook_roots(self, name, maxiter):
        f, a, b = TEXTBOOK[name]
        expected = spo.brentq(f, a, b, maxiter=maxiter, disp=False)
        assert same(_brentq(f, a, b, maxiter=maxiter), expected)
        assert same(_brentq(f, b, a, maxiter=maxiter), spo.brentq(f, b, a, maxiter=maxiter, disp=False))

    def test_maxiter_runs_out(self):
        f, a, b = TEXTBOOK["flat"]
        root, info = spo.brentq(f, a, b, maxiter=5, disp=False, full_output=True)
        assert not info.converged  # the oracle really stopped early
        assert same(_brentq(f, a, b, maxiter=5), root)

    @given(
        st.floats(-10.0, 10.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0),
        st.integers(1, 9), st.sampled_from([2e-12, 1e-6, 0.5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_polynomials(self, root, left, right, power, xtol):
        f = lambda x: math.copysign(abs(x - root) ** power, x - root) + 0.01 * (x - root)
        a, b = root - left, root + right
        expected = spo.brentq(f, a, b, xtol=xtol, disp=False)
        assert same(_brentq(f, a, b, xtol=xtol), expected)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0),  # same sign
            (lambda x: 1e-200, 0.0, 1.0),  # same sign, product underflows
            (lambda x: math.nan, 0.0, 1.0),  # NaN at a
            (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0),  # NaN at b
            (lambda x: x**3 - 30.0 if not 1.0 < x < 2.0 else math.nan, 0.0, 5.0),  # 3rd call
        ],
    )
    def test_raises_where_scipy_raises(self, f, a, b):
        with pytest.raises(ValueError) as theirs:
            spo.brentq(f, a, b, disp=False)
        with pytest.raises(ValueError) as ours:
            _brentq(f, a, b)
        assert str(ours.value).split(";")[0] == str(theirs.value).split(";")[0]


GUARD_SCRIPT = textwrap.dedent(
    """
    import dataclasses, sys

    import repro.cli  # noqa: F401
    from repro.distributions import Exponential, order_statistic
    from repro.experiments import calibrate, scenario_s1
    from repro.model import (
        CacheMissRatios, DeviceParameters, FrontendParameters,
        LatencyPercentileModel, SystemParameters,
    )

    scenario = dataclasses.replace(
        scenario_s1(), n_objects=2_000, warm_accesses=4_000, rates=(30.0,)
    )
    cal = calibrate(scenario, disk_objects=150, parse_requests=60, seed=0)
    device = DeviceParameters(
        "dev", 30.0, 33.0, CacheMissRatios(0.4, 0.45, 0.7),
        cal.profile, cal.parse_benchmark.backend, 1,
    )
    frontend = FrontendParameters(4, cal.parse_benchmark.frontend)
    model = LatencyPercentileModel(SystemParameters(frontend, (device,)))
    assert 0.0 < model.sla_percentile(0.05) <= 1.0
    order_statistic([Exponential(50.0)] * 3, 2).cdf([0.01, 0.02])
    loaded = sorted(m for m in sys.modules if m.split(".")[:2] in
                    (["scipy", "stats"], ["scipy", "optimize"]))
    print(",".join(loaded))
    """
)


def test_import_guard_no_scipy_stats_or_optimize():
    """CLI import, calibration, an SLA query and an order-statistic cdf load neither."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"
