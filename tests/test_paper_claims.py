"""The paper's headline claims, checked on CI-scale regenerations.

Each test regenerates one artifact -- Fig 5/6/7, Tables I/II, the
design-choice ablations, the Section III-A assumption studies, the
whole-CDF validation -- and asserts the finding the paper reports for
it, not its numbers: ours beats ODOPR on every Table II row, Gamma wins
Fig 5, predictions track the Fig 6/7 sweeps.  ``tests/test_goldens.py``
pins smaller-scale numbers, and ``--update-goldens`` would accept any
regression there; these thresholds are what must still hold after a
golden is regenerated.  A last group makes sanity checks on the
library's hot paths (model, inversion, simulator, calibration).

``cosmodel reproduce`` writes every artifact and ``cosmodel fig5|fig6|
fig7|tables|ablations`` prints one.  These run under the ``smoke``
marker, outside tier-1::

    PYTHONPATH=src python -m pytest tests -m smoke -q
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.distributions import Degenerate, Gamma
from repro.experiments import (
    build_table1,
    build_table2,
    calibrate,
    run_accept_wait_ablation,
    run_cdf_validation,
    run_disk_queue_ablation,
    run_fig5,
    run_inversion_ablation,
    run_sweep,
    run_timeout_study,
    run_write_fraction_study,
    scenario_s1,
    scenario_s16,
)
from repro.laplace import invert_cdf
from repro.model import (
    CacheMissRatios,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    LatencyPercentileModel,
    SystemParameters,
)
from repro.simulator import Cluster, ClusterConfig, HddProfile
from repro.workload import ObjectCatalog, OpenLoopDriver, WikipediaTraceGenerator

pytestmark = pytest.mark.smoke

#: Five sweep rates per scenario: fewer points than the paper's grid,
#: the same operating region.
_RATES = {
    "S1": (30.0, 70.0, 110.0, 150.0, 190.0),
    "S16": (40.0, 94.0, 148.0, 202.0, 256.0),
}


def _scenario(name: str):
    base = scenario_s1() if name == "S1" else scenario_s16()
    return dataclasses.replace(base, rates=_RATES[name])


@pytest.fixture(scope="session")
def sweeps():
    """Both scenario sweeps, shared by the Fig 6/7 and Table I/II checks."""
    out = {}
    for name in ("S1", "S16"):
        scenario = _scenario(name)
        out[name] = run_sweep(
            scenario, calibration=calibrate(scenario, seed=0), seed=0
        )
    return out


# ----------------------------------------------------------------------
# Fig 5: disk service-time fits
# ----------------------------------------------------------------------
def test_fig5_gamma_fits_win():
    result = run_fig5(_scenario("S1"), n_objects=2000, seed=0)
    # Paper's finding: the Gamma demonstrates the best result.
    assert all(w == "gamma" for w in result.winners.values())
    assert all(k < 0.1 for k in result.ks.values())
    # Fitted and recorded CDFs overlay closely (the visual content of Fig 5).
    for kind in result.recorded:
        assert abs(result.recorded[kind] - result.fitted[kind]).max() < 0.1


# ----------------------------------------------------------------------
# Fig 6/7: prediction results over the rate sweeps
# ----------------------------------------------------------------------
def test_fig6_s1_tracks_the_sweep(sweeps):
    sweep = sweeps["S1"]
    for sla in sweep.slas:
        obs = sweep.observed_series(sla)
        # Percentile meeting the SLA decreases as the arrival rate grows.
        assert obs[-1] <= obs[0]
        # Our model predicts the trend within a generous absolute band.
        errs = np.abs(sweep.errors("ours", sla))
        assert np.nanmean(errs) < 0.25
    # ODOPR systematically overestimates at the tight SLAs (Fig 6a/6b).
    for sla in (0.01, 0.05):
        assert np.nanmean(sweep.errors("odopr", sla)) > 0.0
        assert np.nanmean(np.abs(sweep.errors("ours", sla))) < np.nanmean(
            np.abs(sweep.errors("odopr", sla))
        )


def test_fig7_s16_tracks_the_sweep(sweeps):
    sweep = sweeps["S16"]
    for sla in sweep.slas:
        obs = sweep.observed_series(sla)
        assert obs[-1] <= obs[0]
        assert np.nanmean(np.abs(sweep.errors("ours", sla))) < 0.25
    # ours vs odopr: union operation still dominates the error budget.
    for sla in (0.01, 0.05):
        assert np.nanmean(np.abs(sweep.errors("ours", sla))) < np.nanmean(
            np.abs(sweep.errors("odopr", sla))
        )
    # WTA shrinks with 16 acceptors: ours and noWTA nearly coincide (the
    # paper: "the WTA itself decreases in the scenario S16").
    gap = np.nanmean(
        np.abs(
            sweep.predicted_series("ours", 0.05)
            - sweep.predicted_series("nowta", 0.05)
        )
    )
    assert gap < 0.1


# ----------------------------------------------------------------------
# Tables I and II
# ----------------------------------------------------------------------
def test_table1_errors_bounded(sweeps):
    table = build_table1(sweeps)
    for _scen, _sla, best, worst, mean in table.rows:
        assert not math.isnan(mean)
        assert 0.0 <= best <= mean <= worst <= 1.0
    # Errors stay bounded well below the trivial predictor's.
    assert table.overall_mean < 0.2
    # Best cases reach the paper's sub-1% regime somewhere in the grid.
    assert min(best for _s, _l, best, _w, _m in table.rows) < 0.01


def test_table2_union_operation_beats_odopr(sweeps):
    table = build_table2(sweeps)
    # Contribution 1 (union operation): ours beats ODOPR everywhere.
    for _scen, _sla, errs in table.rows:
        assert errs["ours"] < errs["odopr"]
    # The reduction reaches the paper's reported magnitude (up to 73%).
    best_reduction = max(
        1.0 - errs["ours"] / errs["odopr"] for _s, _l, errs in table.rows
    )
    assert best_reduction > 0.5


# ----------------------------------------------------------------------
# Design-choice ablations (DESIGN.md)
# ----------------------------------------------------------------------
def test_accept_wait_ablation():
    scenario = dataclasses.replace(scenario_s1(), rates=(50.0, 110.0, 170.0))
    result = run_accept_wait_ablation(scenario, seed=0)
    assert set(result.variants) == {"paper (Wa=Wbe)", "equilibrium", "none (noWTA)"}
    for variant in result.variants:
        for sla in result.slas:
            assert 0.0 <= result.mean_abs_errors[variant][sla] <= 1.0


def test_disk_queue_ablation():
    scenario = dataclasses.replace(scenario_s16(), rates=(64.0, 148.0, 232.0))
    result = run_disk_queue_ablation(scenario, seed=0)
    assert set(result.variants) == {"mm1k (paper)", "mg1k", "finite-source"}
    # All three finite-capacity approximations land in the same ballpark
    # (the paper's claim that other approximations "would also be
    # applicable").
    for sla in result.slas:
        errs = [result.mean_abs_errors[v][sla] for v in result.variants]
        assert max(errs) < 0.35


def test_inversion_ablation():
    result = run_inversion_ablation()
    for sla in result.slas:
        assert result.mean_abs_errors["talbot"][sla] < 1e-3
        assert result.mean_abs_errors["gaver"][sla] < 0.02


# ----------------------------------------------------------------------
# Section III-A assumption boundaries: the paper states the read-heavy
# and normal-status assumptions; these measure what they cost.
# ----------------------------------------------------------------------
def _assumption_scenario():
    return dataclasses.replace(
        scenario_s1(),
        n_objects=20_000,
        warm_accesses=60_000,
        window_duration=20.0,
        settle_duration=4.0,
    )


def test_write_fraction_study():
    study = run_write_fraction_study(
        _assumption_scenario(), rate=60.0, fractions=(0.0, 0.15, 0.3), seed=0
    )
    # The read-heavy assumption: accuracy degrades as writes grow.
    err0 = study.errors["0% writes"][0.05]
    err30 = study.errors["30% writes"][0.05]
    assert err30 > err0
    # At the paper's real write fractions (<5%) the model stays usable.
    assert err0 < 0.1


def test_timeout_study():
    study = run_timeout_study(
        _assumption_scenario(), rate=140.0, timeouts=(None, 0.04), seed=0
    )
    # Tight timeouts actually produce retries on this testbed.
    assert study.diagnostics["timeout 40ms"] > 0.05
    assert study.diagnostics["no timeout"] == 0.0


# ----------------------------------------------------------------------
# Whole-distribution validation (beyond the paper's three SLAs)
# ----------------------------------------------------------------------
def _cdf_scenario(scenario):
    return dataclasses.replace(
        scenario,
        n_objects=30_000,
        warm_accesses=120_000,
        window_duration=30.0,
        settle_duration=6.0,
    )


def test_cdf_validation_s1():
    result = run_cdf_validation(_cdf_scenario(scenario_s1()), rate=90.0, seed=0)
    assert result.ks_distance < 0.2
    # Median latency predicted within ~10 ms on an HDD-bound system.
    assert result.quantile_errors_ms[0.5] < 15.0


def test_cdf_validation_s16():
    result = run_cdf_validation(_cdf_scenario(scenario_s16()), rate=120.0, seed=0)
    assert result.ks_distance < 0.25


# ----------------------------------------------------------------------
# Hot-path sanity checks
# ----------------------------------------------------------------------
def _params(n_devices=4, n_be=1):
    disk = DiskLatencyProfile(
        index=Gamma(2.0, 140.0), meta=Gamma(1.8, 210.0), data=Gamma(2.0, 230.0)
    )
    devices = tuple(
        DeviceParameters(
            name=f"d{i}",
            request_rate=30.0,
            data_read_rate=33.0,
            miss_ratios=CacheMissRatios(0.4, 0.45, 0.7),
            disk=disk,
            parse=Degenerate(0.0004),
            n_processes=n_be,
        )
        for i in range(n_devices)
    )
    return SystemParameters(FrontendParameters(12, Degenerate(0.001)), devices)


def test_model_predictions_are_probabilities():
    model = LatencyPercentileModel(_params())
    assert all(0.0 <= model.sla_percentile(s) <= 1.0 for s in (0.01, 0.05, 0.1))
    s16 = LatencyPercentileModel(_params(n_be=16))
    assert 0.0 <= s16.sla_percentile(0.05) <= 1.0
    fleet = LatencyPercentileModel(_params(n_devices=64))
    assert 0.0 <= fleet.sla_percentile(0.05) <= 1.0
    assert model.latency_quantile(0.99) > 0.0


def test_inverted_cdf_is_monotone():
    out = invert_cdf(Gamma(2.0, 100.0), np.linspace(1e-4, 0.3, 256))
    assert np.all(np.diff(out) >= -1e-9)


def test_simulator_window_completes_requests():
    catalog = ObjectCatalog.synthetic(
        10_000, mean_size=16_384.0, size_sigma=1.0, rng=np.random.default_rng(3)
    )
    cluster = Cluster(
        ClusterConfig(cache_bytes_per_server=8 << 20), catalog.sizes, seed=5
    )
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(6))
    OpenLoopDriver(cluster).run(gen.constant_rate(150.0, 5.0))
    cluster.drain()
    assert cluster.metrics.n_requests > 500


def test_disk_calibration_fits_gamma():
    from repro.calibration import benchmark_disk

    catalog = ObjectCatalog.synthetic(
        5_000, mean_size=16_384.0, size_sigma=1.0, rng=np.random.default_rng(4)
    )
    result = benchmark_disk(HddProfile(), catalog.sizes, n_objects=400, seed=1)
    assert result.best("data").family == "gamma"


def test_che_miss_ratio_is_a_probability():
    from repro.calibration import predict_cache_miss_ratios

    catalog = ObjectCatalog.synthetic(
        60_000, mean_size=16_384.0, size_sigma=1.0, rng=np.random.default_rng(5)
    )
    cfg = ClusterConfig(cache_bytes_per_server=32 << 20)
    result = predict_cache_miss_ratios(catalog, cfg, 30.0)
    assert 0.0 < result.miss_ratios.data < 1.0
