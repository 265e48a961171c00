"""The batched quantile search returns the scalar bisection's answers.

:meth:`Distribution.quantile` evaluates many bisection steps per ``cdf``
call -- the path a root estimate predicts, or the next tree levels --
point-wise, so that every value it compares equals that of a one-time
``cdf`` call.  These tests keep a copy of the one-step-at-a-
time search as the reference and require float-equal answers and equal
``RepairWarning`` counts across distributions, models, inversion methods
and quantile levels; and they pin the point-wise inversion mode the
search relies on.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.distributions import (
    Convolution,
    Degenerate,
    Exponential,
    Gamma,
    GridDistribution,
    GridPMF,
    KofN,
    Mixture,
    Scaled,
    Shifted,
    Uniform,
    ZeroInflated,
    evalcache,
)
from repro.distributions.base import DistributionError, _root_estimate
from repro.laplace import invert_cdf
from repro.laplace.inversion import RepairWarning
from repro.model import (
    CacheMissRatios,
    DegradedLatencyModel,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    LatencyPercentileModel,
    RedundantLatencyModel,
    SystemParameters,
    replica_sets_from_ring,
)
from repro.simulator.faults import DiskSlowdown, schedule_of
from repro.simulator.ring import HashRing
from tests.test_redundant_reads import _skewed_params

METHODS = ("euler", "talbot", "gaver")
LEVELS = (0.5, 0.9, 0.99, 0.999)


def reference_quantile(dist, q, *, bracket=None, tol=1e-9, method="euler"):
    """The scalar bisection: one ``cdf`` call per step."""
    if q <= dist.atom_at_zero:
        return 0.0
    if bracket is not None:
        lo, hi = bracket
    else:
        lo = 0.0
        hi = max(dist.mean, 1e-9) * 2.0
        for _ in range(80):
            if float(dist.cdf(hi, method=method)) >= q:
                break
            hi *= 2.0
        else:
            raise DistributionError("failed to bracket quantile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, hi):
            break
        if float(dist.cdf(mid, method=method)) >= q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _with_warnings(fn):
    """``fn()`` on an empty memo, and the RepairWarnings it raised."""
    evalcache.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RepairWarning)
        value = fn()
    return value, sum(issubclass(w.category, RepairWarning) for w in caught)


def assert_same_search(dist, q, method, **kwargs):
    want, want_warn = _with_warnings(
        lambda: reference_quantile(dist, q, method=method, **kwargs)
    )
    got, got_warn = _with_warnings(lambda: dist.quantile(q, method=method, **kwargs))
    assert got == want
    assert got_warn == want_warn
    return got_warn


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------


def _body():
    """A law with no closed-form CDF: every evaluation inverts."""
    return Convolution([Gamma(2.0, 250.0), Exponential(150.0)])


DISTRIBUTIONS = {
    "gamma": lambda: Gamma(2.4, 140.0),
    "zero_inflated": lambda: ZeroInflated(_body(), 0.3),
    "mixture": lambda: Mixture(
        [_body(), Gamma(1.8, 210.0), Convolution([Gamma(3.0, 400.0), Degenerate(0.002)])],
        [0.5, 0.3, 0.2],
    ),
    "scaled": lambda: Scaled(_body(), 1.7),
    "shifted": lambda: Shifted(_body(), 0.003),
    "kofn": lambda: KofN(_body(), 1, 2),
    "grid": lambda: GridDistribution(Gamma(2.0, 235.0).to_grid(1e-4, 2048)),
}


@pytest.mark.parametrize("q", LEVELS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_distribution_matches_scalar_search(name, method, q):
    assert_same_search(DISTRIBUTIONS[name](), q, method)


def test_zero_inflated_levels_straddle_the_atom():
    dist = DISTRIBUTIONS["zero_inflated"]()
    assert LEVELS[0] <= dist.atom_at_zero < LEVELS[1]
    assert dist.quantile(LEVELS[0]) == 0.0
    assert dist.quantile(LEVELS[1]) > 0.0


def _stepped_grid():
    """Three lumps of mass with flat CDF stretches between them."""
    probs = np.zeros(400)
    probs[5:16] = 0.2 / 11
    probs[200:211] = 0.5 / 11
    probs[300:306] = 0.3 / 6
    return GridDistribution(GridPMF(1e-3, probs))


@pytest.mark.parametrize("q", LEVELS + (0.9999,))
def test_law_reaching_one_matches_scalar_search(q):
    """The first bracket ends where the CDF is exactly 1, so the root
    estimate cannot take ``log1p(-1)`` and interpolates linearly."""
    dist = Uniform(0.01, 0.03)
    assert dist.cdf(2.0 * dist.mean) == 1.0
    assert_same_search(dist, q, "euler")


def test_flat_grid_matches_scalar_search():
    dist = _stepped_grid()
    flat = float(dist.cdf(0.1))  # the level of the first flat stretch
    for q in (0.1, flat, np.nextafter(flat, 1.0), 0.5, 0.7, 0.95, 0.9999):
        assert_same_search(dist, q, "euler")
    # Brackets inside a flat stretch, below and above the level sought.
    for bracket in [(0.05, 0.15), (0.22, 0.28), (0.0, 0.18)]:
        assert_same_search(dist, 0.5, "euler", bracket=bracket)


def test_root_estimate_fallbacks():
    # A secant on log1p(-F): exact for an exponential tail.
    a, b = 1.0, 3.0
    r = _root_estimate(a, 1.0 - np.exp(-a), b, 1.0 - np.exp(-b), 1.0 - np.exp(-2.5))
    assert r == pytest.approx(2.5, rel=1e-12)
    # Linear where the upper end is exactly 1.
    assert _root_estimate(0.0, 0.2, 2.0, 1.0, 0.6) == pytest.approx(1.0)
    # The midpoint with an end value unknown, equal or out of order.
    assert _root_estimate(0.0, None, 2.0, 0.9, 0.5) == 1.0
    assert _root_estimate(0.0, 0.5, 2.0, 0.5, 0.5) == 1.0
    assert _root_estimate(0.0, 0.6, 2.0, 0.4, 0.5) == 1.0


@pytest.mark.parametrize("bracket", [(0.0, 0.5), (0.001, 0.04), (0.0, 1e-6)])
def test_explicit_bracket_matches_scalar_search(bracket):
    assert_same_search(_body(), 0.9, "euler", bracket=bracket)


@pytest.mark.parametrize(
    "bracket",
    [(0.5, 0.1), (0.1, 0.1), (-0.1, 0.5), (0.0, float("inf")), (float("nan"), 1.0)],
)
def test_invalid_bracket_raises(bracket):
    with pytest.raises(DistributionError, match="bracket"):
        _body().quantile(0.9, bracket=bracket)


@pytest.mark.parametrize("q", [-0.1, 1.0, float("nan")])
def test_invalid_level_raises(q):
    with pytest.raises(DistributionError, match="quantile level"):
        _body().quantile(q)


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------

DISK = DiskLatencyProfile(
    index=Gamma(2.4, 140.0), meta=Gamma(1.8, 210.0), data=Gamma(2.0, 235.0)
)


def _params(n_devices: int, n_processes: int) -> SystemParameters:
    """``n_devices`` devices of spread load and miss ratios.

    ``n_processes`` 1 gives the S1 shape, 16 the S16 shape; the rates
    stay well inside each shape's stable region.
    """
    rate_hi = 30.0 if n_processes == 1 else 40.0
    devices = []
    for i in range(n_devices):
        u = i / max(n_devices - 1, 1)
        rate = rate_hi * (0.4 + 0.6 * u)
        devices.append(
            DeviceParameters(
                name=f"dev{i}",
                request_rate=rate,
                data_read_rate=rate * 1.04,
                miss_ratios=CacheMissRatios(
                    0.3 + 0.2 * u, 0.35 + 0.2 * (1.0 - u), 0.7 + 0.15 * u
                ),
                disk=DISK,
                parse=Degenerate(0.0004),
                n_processes=n_processes,
            )
        )
    return SystemParameters(FrontendParameters(12, Degenerate(0.001)), tuple(devices))


def _degraded(method):
    sched = schedule_of([DiskSlowdown(device=0, start=0.0, end=10.0, factor=2.5)])
    return DegradedLatencyModel(_params(4, 1), sched, (0.0, 10.0), inversion=method)


def _kofn(method):
    params = _params(4, 1)
    ring = HashRing(64, 4, 3, np.random.default_rng(5))
    rows = replica_sets_from_ring(ring, [d.name for d in params.devices])
    return RedundantLatencyModel(
        params, rows, strategy="kofn", fanout=2, inversion=method
    )


MODELS = {
    "s1_16dev": lambda m: LatencyPercentileModel(_params(16, 1), inversion=m),
    "s16_16dev": lambda m: LatencyPercentileModel(_params(16, 16), inversion=m),
    "degraded": _degraded,
    "kofn_fanout2": _kofn,
}


#: The kofn model composes on lattices and inverts nothing, so no
#: RepairWarning may come from it (the searches record theirs).
_LATTICE_ONLY = ("kofn_fanout2",)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.filterwarnings(
                "error::repro.laplace.inversion.RepairWarning"
            ),
        )
        if name in _LATTICE_ONLY
        else name
        for name in sorted(MODELS)
    ],
)
def test_model_matches_scalar_search(name, method):
    model = MODELS[name](method)
    for q in LEVELS:
        warned = assert_same_search(model.system_latency, q, method)
        if name in _LATTICE_ONLY:
            assert warned == 0
        assert model.latency_quantile(q) == model.system_latency.quantile(
            q, method=method
        )


#: (index, meta, data) miss-ratio bands of the benchmark's what-if sets.
WHATIF_BANDS = {
    1: ((0.30, 0.50), (0.35, 0.55), (0.70, 0.85)),
    16: ((0.20, 0.30), (0.27, 0.35), (0.70, 0.80)),
}


def _whatif_params(n_processes: int, seed: int) -> SystemParameters:
    """16 devices at 0.2-0.7 of the shape's largest stable rate."""
    bands = WHATIF_BANDS[n_processes]
    frontend = FrontendParameters(12, Degenerate(0.001))

    def device(name, rate, miss_u):
        miss = [lo + u * (hi - lo) for u, (lo, hi) in zip(miss_u, bands)]
        return DeviceParameters(
            name,
            rate,
            rate * 1.04,
            CacheMissRatios(*miss),
            DISK,
            Degenerate(0.0004),
            n_processes,
        )

    top = SystemParameters(frontend, (device("top", 1.0, (1.0, 1.0, 1.0)),))
    rate_max = LatencyPercentileModel(top).max_stable_scale()
    rng = np.random.default_rng(seed)
    return SystemParameters(
        frontend,
        tuple(
            device(f"d{j}", rng.uniform(0.2, 0.7) * rate_max, rng.random(3))
            for j in range(16)
        ),
    )


@pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 0.9999])
@pytest.mark.parametrize("n_processes", [1, 16])
def test_whatif_sets_match_scalar_search(n_processes, q):
    model = LatencyPercentileModel(_whatif_params(n_processes, seed=3))
    assert assert_same_search(model.system_latency, q, "euler") == 0


SATURATION_LOADS = (0.5, 0.9, 0.99, 0.999)
SATURATION_LEVELS = (0.5, 0.99, 0.9999)


@pytest.fixture(scope="module")
def near_saturation():
    """The skewed four-device S1/S16 sets at fractions of their largest
    stable load, where the inversion's noise reaches the searched tail."""
    laws = {}
    for n_processes in (1, 16):
        params = _skewed_params(n_processes)
        top = LatencyPercentileModel(params).max_stable_scale(tol=1e-6)
        for load in SATURATION_LOADS:
            model = LatencyPercentileModel(params.scaled(load * top))
            laws[n_processes, load] = model.system_latency
    return laws


def _searched(dist, q):
    """``dist.quantile(q)`` on an empty memo, with its cdf calls and
    RepairWarnings."""
    calls = 0
    cdf = type(dist).cdf

    def counting(self, t, **kwargs):
        nonlocal calls
        calls += self is dist
        return cdf(self, t, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(dist), "cdf", counting)
        value, warned = _with_warnings(lambda: dist.quantile(q))
    return value, calls, warned


@pytest.mark.parametrize("load", SATURATION_LOADS)
@pytest.mark.parametrize("n_processes", [1, 16])
def test_near_saturation_matches_scalar_search(near_saturation, n_processes, load):
    dist = near_saturation[n_processes, load]
    for q in SATURATION_LEVELS:
        want, _ = _with_warnings(lambda: reference_quantile(dist, q))
        assert _searched(dist, q)[0] == want


def test_near_saturation_flags_noise_within_call_budget(near_saturation):
    """Toward saturation the tail's inverted values are noise: the
    search warns there and nowhere at half load.  It falls back to whole
    tree levels once its estimate fails early, so it needs no more calls
    than evaluating the whole tree every time: 217 in all here, and at
    most 11 in one search."""
    searches = {
        (key, q): _searched(dist, q)
        for key, dist in near_saturation.items()
        for q in SATURATION_LEVELS
    }
    calls = [calls for _, calls, _ in searches.values()]
    assert sum(calls) <= 217 and max(calls) <= 11
    assert searches[(16, 0.999), 0.9999][2] == 1
    assert not any(searches[(n, 0.5), q][2] for n in (1, 16) for q in SATURATION_LEVELS)


# ----------------------------------------------------------------------
# point-wise inversion
# ----------------------------------------------------------------------

#: Unsorted, with a duplicate and non-positive times.
TIMES = np.array([0.031, 0.004, -0.01, 0.0, 0.018, 0.004, 0.2, 1e-5, 0.0125])


def _rippled():
    """A law whose inversion ripples near its interior atom, so the
    monotone repair of an ordinary batch moves values."""
    return Mixture(
        [Shifted(Gamma(40.0, 4000.0), 0.004), ZeroInflated(_body(), 0.5)], [0.5, 0.5]
    )


@pytest.mark.parametrize("method", METHODS)
def test_pointwise_batch_equals_scalar_calls(method):
    dist = _rippled()
    evalcache.clear()
    batch = invert_cdf(dist, TIMES, method=method, _pointwise=True)
    evalcache.clear()
    scalars = [invert_cdf(dist, t, method=method) for t in TIMES]
    assert batch.shape == TIMES.shape
    assert batch.tolist() == scalars


@pytest.mark.parametrize("pointwise_first", [True, False])
def test_pointwise_batch_keeps_its_own_memo_entry(pointwise_first):
    dist = _rippled()
    times = np.linspace(0.0035, 0.0045, 41)  # straddles the atom's ripple
    evalcache.clear()
    repaired_alone = invert_cdf(dist, times)
    evalcache.clear()
    pointwise_alone = invert_cdf(dist, times, _pointwise=True)
    # The repair moves this batch, so a shared entry would show.
    assert repaired_alone.tolist() != pointwise_alone.tolist()

    evalcache.clear()
    calls = [
        lambda: invert_cdf(dist, times, _pointwise=True),
        lambda: invert_cdf(dist, times),
    ]
    first, second = calls if pointwise_first else calls[::-1]
    first()
    entries = evalcache.stats()["inversion_entries"]
    second()
    assert evalcache.stats()["inversion_entries"] == entries + 1
    # Repeats hit each entry and still return each mode's own values.
    assert invert_cdf(dist, times, _pointwise=True).tolist() == pointwise_alone.tolist()
    assert invert_cdf(dist, times).tolist() == repaired_alone.tolist()


def test_pointwise_batch_raises_no_repair_warning():
    dist = Convolution([Gamma(2.0, 250.0), Degenerate(0.004)])
    times = np.linspace(0.003, 0.005, 201)
    _, repaired = _with_warnings(lambda: invert_cdf(dist, times))
    _, pointwise = _with_warnings(lambda: invert_cdf(dist, times, _pointwise=True))
    assert repaired > 0
    assert pointwise == 0


def test_search_batches_are_pointwise(monkeypatch):
    """Every cdf call of the search asks for point-wise evaluation."""
    seen = []
    body = _body()
    original = type(body).cdf

    def spy(self, t, **kwargs):
        seen.append((np.size(t), kwargs.get("_pointwise", False)))
        return original(self, t, **kwargs)

    monkeypatch.setattr(type(body), "cdf", spy)
    body.quantile(0.99)
    assert seen and all(pointwise for _, pointwise in seen)
    # Far fewer calls than one per bisection step (about 30), and few
    # points beyond the steps taken.
    assert len(seen) <= 4
    assert sum(n for n, _ in seen) <= 41
    assert max(n for n, _ in seen) > 1
