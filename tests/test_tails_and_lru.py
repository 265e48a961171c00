"""Tests for the tail distribution families and Che's LRU approximation."""

import numpy as np
import pytest

from repro.calibration import (
    che_characteristic_time,
    lru_hit_probabilities,
    lru_miss_ratio,
    predict_cache_miss_ratios,
)
from repro.distributions import (
    DistributionError,
    Exponential,
    Pareto,
    ShiftedExponential,
    Weibull,
    convolve,
)
from repro.laplace import invert_cdf
from repro.queueing import MG1Queue


class TestWeibull:
    def test_moments(self):
        import math

        w = Weibull(2.0, 0.01)
        assert w.mean == pytest.approx(0.01 * math.gamma(1.5))
        assert w.second_moment == pytest.approx(1e-4 * math.gamma(2.0))

    def test_shape_one_is_exponential(self):
        w = Weibull(1.0, 0.01)
        e = Exponential(100.0)
        t = np.array([0.005, 0.02, 0.05])
        assert np.allclose(w.cdf(t), e.cdf(t))
        s = np.array([10.0, 200.0 + 30.0j])
        assert np.allclose(w.laplace(s), e.laplace(s), atol=1e-5)

    def test_transform_inverts_to_cdf(self):
        for shape in (0.7, 1.5, 3.0):
            w = Weibull(shape, 0.01)
            t = np.array([0.004, 0.02, 0.06])
            assert np.allclose(invert_cdf(w, t), w.cdf(t), atol=1e-4)

    def test_usable_in_mg1(self):
        w = Weibull(0.8, 0.005)
        q = MG1Queue(40.0, w)
        soj = q.sojourn_time()
        assert soj.cdf(0.2) > soj.cdf(0.02) > 0.0

    def test_sampling(self, rng):
        w = Weibull(1.4, 0.02)
        s = w.sample(rng, size=40_000)
        assert s.mean() == pytest.approx(w.mean, rel=0.03)

    def test_extreme_shape_rejected(self):
        with pytest.raises(DistributionError):
            Weibull(0.2, 1.0)


class TestPareto:
    def test_moments(self):
        p = Pareto(3.0, 0.02)
        assert p.mean == pytest.approx(0.01)
        assert p.second_moment == pytest.approx(2 * 4e-4 / (2.0 * 1.0))

    def test_transform_inverts_to_cdf(self):
        p = Pareto(2.8, 0.02)
        t = np.array([0.005, 0.03, 0.1])
        assert np.allclose(invert_cdf(p, t), p.cdf(t), atol=2e-3)

    def test_heavy_alpha_gating(self):
        with pytest.raises(DistributionError):
            Pareto(1.8, 0.01)
        heavy = Pareto(1.8, 0.01, allow_heavy=True)
        assert heavy.mean == pytest.approx(0.0125)
        with pytest.raises(DistributionError):
            _ = heavy.second_moment

    def test_sampling_inverse_transform(self, rng):
        p = Pareto(3.5, 0.02)
        s = p.sample(rng, size=60_000)
        assert s.mean() == pytest.approx(p.mean, rel=0.03)

    def test_heavier_tail_than_exponential(self):
        p = Pareto(2.5, 0.015)
        e = Exponential(1.0 / p.mean)
        far = 10 * p.mean
        assert (1 - p.cdf(far)) > (1 - e.cdf(far))


class TestShiftedExponential:
    def test_floor_respected(self):
        se = ShiftedExponential(0.005, 200.0)
        assert se.cdf(0.004) == 0.0
        assert se.mean == pytest.approx(0.01)

    def test_transform_closed_form(self):
        se = ShiftedExponential(0.003, 100.0)
        s = np.array([7.0 + 2.0j])
        expected = np.exp(-s * 0.003) * 100.0 / (100.0 + s)
        assert np.allclose(se.laplace(s), expected)

    def test_composes_in_convolution(self):
        c = convolve(ShiftedExponential(0.002, 500.0), Exponential(100.0))
        assert c.mean == pytest.approx(0.002 + 0.002 + 0.01)

    def test_sampling(self, rng):
        se = ShiftedExponential(0.01, 50.0)
        s = se.sample(rng, size=20_000)
        assert s.min() >= 0.01
        assert s.mean() == pytest.approx(0.03, rel=0.03)


class TestCheApproximation:
    def test_characteristic_time_monotone_in_capacity(self):
        w = np.ones(100)
        s = np.ones(100)
        xs = [che_characteristic_time(w, s, c) for c in (10, 30, 60)]
        assert xs[0] < xs[1] < xs[2]

    def test_everything_fits(self):
        w = np.ones(10)
        s = np.ones(10)
        assert che_characteristic_time(w, s, 100) == np.inf
        assert np.all(lru_hit_probabilities(w, s, 100) == 1.0)

    def test_zero_capacity(self):
        w = np.ones(10)
        s = np.ones(10)
        assert lru_miss_ratio(w, s, 0.0) == pytest.approx(1.0)

    def test_uniform_popularity_fill_fraction(self):
        """Uniform weights: hit ratio ~ the cached fraction."""
        n = 1000
        w = np.ones(n)
        s = np.ones(n)
        miss = lru_miss_ratio(w, s, 300.0)
        assert 1.0 - miss == pytest.approx(0.3, abs=0.02)

    def test_zipf_beats_uniform(self):
        """Skewed popularity caches much better than uniform."""
        n = 1000
        ranks = np.arange(1, n + 1)
        zipf = 1.0 / ranks
        uniform = np.ones(n)
        sizes = np.ones(n)
        assert lru_miss_ratio(zipf, sizes, 100.0) < lru_miss_ratio(
            uniform, sizes, 100.0
        )

    def test_against_simulated_lru(self, rng):
        """Che vs a direct LRU simulation under IRM, Zipf popularity."""
        from repro.simulator import StampLru

        n = 2000
        ranks = rng.permutation(n) + 1
        weights = 1.0 / ranks.astype(float)
        probs = weights / weights.sum()
        capacity = 400
        cache = StampLru(capacity, 1, n)
        draws = rng.choice(n, size=120_000, p=probs)
        for obj in draws[:40_000]:  # warm
            cache.access(int(obj))
        cache.reset_counters()
        for obj in draws[40_000:]:
            cache.access(int(obj))
        simulated_miss = cache.misses / (cache.hits + cache.misses)
        predicted_miss = lru_miss_ratio(probs, np.ones(n), capacity)
        assert predicted_miss == pytest.approx(simulated_miss, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            che_characteristic_time(np.ones(3), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            che_characteristic_time(np.ones(3), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            lru_miss_ratio(np.zeros(3), np.ones(3), 1.0)


class TestPredictMissRatios:
    def test_against_simulator(self, small_catalog):
        """End-to-end: predicted per-kind miss ratios track the live
        simulator's measured ratios within a few points."""
        from repro.simulator import Cluster, ClusterConfig
        from repro.workload import OpenLoopDriver, WikipediaTraceGenerator

        cfg = ClusterConfig(
            cache_bytes_per_server=12 << 20,
            cache_split=(0.12, 0.28, 0.60),
            scanner_rate=300.0,
        )
        cluster = Cluster(cfg, small_catalog.sizes, seed=7)
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(1))
        cluster.warm_caches(gen.warmup_accesses(60_000))
        driver = OpenLoopDriver(cluster)
        driver.run(gen.constant_rate(80.0, 10.0))
        cluster.reset_window_counters()
        driver.run(gen.constant_rate(80.0, 40.0))
        cluster.drain()
        dev = cluster.devices[0]
        server_rate = dev.counters.requests / 40.0
        predicted = predict_cache_miss_ratios(small_catalog, cfg, server_rate)
        p, c = predicted.miss_ratios, dev.counters
        assert p.index == pytest.approx(c.miss_ratio("index"), abs=0.08)
        assert p.meta == pytest.approx(c.miss_ratio("meta"), abs=0.08)
        assert p.data == pytest.approx(c.miss_ratio("data"), abs=0.10)

    def test_more_memory_lowers_misses(self, small_catalog):
        from repro.simulator import ClusterConfig

        small = predict_cache_miss_ratios(
            small_catalog, ClusterConfig(cache_bytes_per_server=8 << 20), 30.0
        )
        big = predict_cache_miss_ratios(
            small_catalog, ClusterConfig(cache_bytes_per_server=64 << 20), 30.0
        )
        assert big.miss_ratios.index < small.miss_ratios.index
        assert big.miss_ratios.data < small.miss_ratios.data

    def test_higher_request_rate_beats_scan_pollution(self, small_catalog):
        """More request traffic relative to the fixed scan rate raises
        popular objects' residency -> lower request-weighted misses."""
        from repro.simulator import ClusterConfig

        cfg = ClusterConfig(cache_bytes_per_server=16 << 20, scanner_rate=600.0)
        slow = predict_cache_miss_ratios(small_catalog, cfg, 5.0)
        fast = predict_cache_miss_ratios(small_catalog, cfg, 200.0)
        assert fast.miss_ratios.index < slow.miss_ratios.index

    def test_validation(self, small_catalog):
        from repro.simulator import ClusterConfig

        with pytest.raises(ValueError):
            predict_cache_miss_ratios(small_catalog, ClusterConfig(), 0.0)


class TestSlaPercentileCi:
    def test_interval_contains_estimate(self):
        from repro.simulator import sla_percentile_ci

        lat = np.linspace(0.0, 0.2, 1000)
        p, lo, hi = sla_percentile_ci(lat, 0.1)
        assert lo <= p <= hi
        assert hi - lo < 0.07

    def test_extreme_estimates_bounded(self):
        from repro.simulator import sla_percentile_ci

        lat = np.full(50, 0.5)
        p, lo, hi = sla_percentile_ci(lat, 0.1)
        assert p == 0.0
        assert hi > 0.0  # Wilson keeps a non-trivial upper bound

    def test_narrows_with_samples(self):
        from repro.simulator import sla_percentile_ci

        rng = np.random.default_rng(0)
        small = rng.exponential(0.05, 100)
        large = rng.exponential(0.05, 10_000)
        _, lo_s, hi_s = sla_percentile_ci(small, 0.05)
        _, lo_l, hi_l = sla_percentile_ci(large, 0.05)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_validation(self):
        from repro.simulator import sla_percentile_ci

        with pytest.raises(ValueError):
            sla_percentile_ci(np.array([1.0]), 0.5, confidence=1.5)
