"""Integration tests for the assembled cluster, ring, frontend, scanner,
and the metrics recorder's histogram buffering and disk-sample slots."""

import types

import numpy as np
import pytest

from repro.distributions import Exponential
from repro.obs.hist import LatencyHistogram
from repro.simulator import (
    Cluster,
    ClusterConfig,
    HashRing,
    MetricsRecorder,
    RngStreams,
)
from repro.simulator.metrics import HISTOGRAM_FAMILIES
from repro.workload import ObjectCatalog, OpenLoopDriver, WikipediaTraceGenerator


@pytest.fixture
def cluster(small_catalog):
    return Cluster(
        ClusterConfig(cache_bytes_per_server=8 << 20, scanner_rate=200.0),
        small_catalog.sizes,
        seed=11,
    )


class TestHashRing:
    def test_replicas_distinct_per_partition(self):
        ring = HashRing(256, 8, 3, np.random.default_rng(0))
        for part in range(256):
            assert len(set(ring.assignment[part])) == 3

    def test_balanced_assignment(self):
        ring = HashRing(1024, 4, 3, np.random.default_rng(0))
        counts = np.bincount(ring.assignment.ravel(), minlength=4)
        assert counts.max() - counts.min() <= 6

    def test_partition_stability(self):
        ring = HashRing(1024, 4, 3, np.random.default_rng(0))
        assert ring.partition_of(12345) == ring.partition_of(12345)

    def test_pick_returns_replica(self):
        ring = HashRing(64, 6, 3, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for obj in range(50):
            assert ring.pick(obj, rng) in set(ring.devices_for(obj))

    def test_load_share_sums_to_one(self):
        ring = HashRing(512, 4, 3, np.random.default_rng(3))
        pop = np.random.default_rng(4).random(1000)
        shares = ring.device_load_share(pop / pop.sum())
        assert shares.sum() == pytest.approx(1.0)
        assert np.all(shares > 0.1)  # roughly balanced

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            HashRing(16, 2, 3, rng)
        with pytest.raises(ValueError):
            HashRing(0, 2, 1, rng)


class TestClusterConfig:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.n_backend_servers == 4

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_devices=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_devices=4, devices_per_server=3)
        with pytest.raises(ValueError):
            ClusterConfig(replicas=9, n_devices=4)
        with pytest.raises(ValueError):
            ClusterConfig(cache_split=(0.5, 0.6, 0.2))


class TestClusterEndToEnd:
    def test_conservation(self, cluster, small_catalog):
        """Every scheduled request completes exactly once."""
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(5))
        trace = gen.constant_rate(80.0, 10.0)
        OpenLoopDriver(cluster).run(trace)
        cluster.drain()
        assert cluster.metrics.n_requests == len(trace)

    def test_sampling_frontend_parse_runs_end_to_end(self, small_catalog):
        """A non-Degenerate frontend parse draws its service time per
        request from the frontend's stream; the run still completes every
        request, with a positive frontend sojourn."""
        cl = Cluster(
            ClusterConfig(
                cache_bytes_per_server=8 << 20, parse_fe=Exponential(1000.0)
            ),
            small_catalog.sizes,
            seed=11,
        )
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(5))
        trace = gen.constant_rate(80.0, 5.0)
        OpenLoopDriver(cl).run(trace)
        cl.drain()
        assert cl.metrics.n_requests == len(trace)
        assert np.all(cl.metrics.requests().frontend_sojourn > 0.0)

    def test_reproducibility(self, small_catalog):
        def run(seed):
            cl = Cluster(ClusterConfig(cache_bytes_per_server=8 << 20), small_catalog.sizes, seed=seed)
            gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(5))
            OpenLoopDriver(cl).run(gen.constant_rate(50.0, 5.0))
            cl.drain()
            return cl.metrics.requests().response_latency

        a, b, c = run(1), run(1), run(2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_latencies_positive_and_ordered(self, cluster, small_catalog):
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(6))
        OpenLoopDriver(cluster).run(gen.constant_rate(60.0, 8.0))
        cluster.drain()
        tab = cluster.metrics.requests()
        assert np.all(tab.response_latency > 0.0)
        assert np.all(tab.full_latency >= tab.response_latency - 1e-12)
        assert np.all(tab.accept_wait >= 0.0)
        assert np.all(tab.frontend_sojourn > 0.0)

    def test_devices_all_receive_traffic(self, cluster, small_catalog):
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(7))
        OpenLoopDriver(cluster).run(gen.constant_rate(100.0, 10.0))
        cluster.drain()
        tab = cluster.metrics.requests()
        assert set(np.unique(tab.device_id)) == {0, 1, 2, 3}

    def test_window_counter_reset(self, cluster, small_catalog):
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(8))
        OpenLoopDriver(cluster).run(gen.constant_rate(50.0, 4.0))
        cluster.reset_window_counters()
        assert all(d.counters.requests == 0 for d in cluster.devices)

    def test_warm_caches_improves_hit_ratio(self, small_catalog):
        def run(warm):
            cl = Cluster(
                ClusterConfig(cache_bytes_per_server=16 << 20, scanner_rate=0.0),
                small_catalog.sizes,
                seed=4,
            )
            gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(9))
            if warm:
                cl.warm_caches(gen.warmup_accesses(30_000))
            OpenLoopDriver(cl).run(gen.constant_rate(40.0, 6.0))
            cl.drain()
            c = cl.devices[0].counters
            return c.miss_ratio("data")

        assert run(True) < run(False)

    def test_higher_load_worse_latency(self, small_catalog):
        def p95(rate):
            cl = Cluster(
                ClusterConfig(cache_bytes_per_server=8 << 20),
                small_catalog.sizes,
                seed=4,
            )
            gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(10))
            cl.warm_caches(gen.warmup_accesses(20_000))
            OpenLoopDriver(cl).run(gen.constant_rate(rate, 15.0))
            cl.drain()
            return np.percentile(cl.metrics.requests().response_latency, 95)

        assert p95(150.0) > p95(30.0)

    def test_poisson_arrival_counts(self, cluster, small_catalog):
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(11))
        trace = gen.constant_rate(200.0, 20.0)
        # Counts over 1-second bins should be Poisson(200)-ish.
        counts = np.bincount(trace.timestamps.astype(int), minlength=20)[:20]
        assert counts.mean() == pytest.approx(200.0, rel=0.1)
        assert counts.var() == pytest.approx(200.0, rel=0.4)


class TestScanner:
    def test_scanner_raises_miss_ratios(self, small_catalog):
        def miss(scan_rate):
            cl = Cluster(
                ClusterConfig(
                    cache_bytes_per_server=8 << 20, scanner_rate=scan_rate
                ),
                small_catalog.sizes,
                seed=4,
            )
            gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(12))
            cl.warm_caches(gen.warmup_accesses(20_000))
            OpenLoopDriver(cl).run(gen.constant_rate(60.0, 10.0))
            cl.drain()
            c = cl.devices[0].counters
            return c.miss_ratio("index")

        assert miss(2000.0) > miss(0.0)

    def test_scanner_touch_accounting(self, small_catalog):
        cl = Cluster(
            ClusterConfig(cache_bytes_per_server=8 << 20, scanner_rate=500.0),
            small_catalog.sizes,
            seed=4,
        )
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(13))
        OpenLoopDriver(cl).run(gen.constant_rate(40.0, 10.0))
        cl.drain()
        scanner = cl.scanners[0]
        # index walk at 500/s + meta at 0.85x + data at 0.5x over ~10 s.
        expected = 500.0 * 10.0 * (1.0 + 0.85 + 0.5)
        assert scanner.touches == pytest.approx(expected, rel=0.1)

    def test_disabled_scanner(self, small_catalog):
        cl = Cluster(
            ClusterConfig(cache_bytes_per_server=8 << 20, scanner_rate=0.0),
            small_catalog.sizes,
            seed=4,
        )
        assert all(s is None for s in cl.scanners)

    @pytest.mark.parametrize(
        "field", ["scanner_rate", "scanner_data_fraction"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_config_rejects_bad_scanner_inputs(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("field", ["rate", "data_rate_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_scanner_rejects_bad_inputs(self, field, value):
        from repro.simulator.cache import StampLru, chunk_layout
        from repro.simulator.scanner import MaintenanceScanner

        kwargs = {"rate": 100.0, "data_rate_fraction": 0.5, field: value}
        rate = kwargs.pop("rate")
        chunk_base, chunk_sizes = chunk_layout(np.full(10, 4096), 65536)
        with pytest.raises(ValueError, match=field):
            MaintenanceScanner(
                StampLru(1024, 256, 10),
                StampLru(1024, 256, 10),
                StampLru(1024, chunk_sizes, chunk_sizes.size),
                chunk_base,
                rate,
                **kwargs,
            )


class TestStateSummary:
    def test_idle_state(self, small_catalog):
        cl = Cluster(ClusterConfig(), small_catalog.sizes, seed=1)
        state = cl.state_summary()
        assert state["pending_events"] == 0
        assert all(q == 0 for q in state["frontend_queue_lengths"])
        for dev in state["devices"]:
            assert dev["disk_backlog"] == 0
            assert dev["pool_depth"] == 0
            assert sum(dev["process_queue_lengths"]) == 0

    def test_loaded_state_shows_backlog(self, small_catalog):
        cl = Cluster(
            ClusterConfig(cache_bytes_per_server=4 << 20),
            small_catalog.sizes,
            seed=1,
        )
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(2))
        OpenLoopDriver(cl).load(gen.constant_rate(400.0, 5.0))
        cl.run_until(2.5)  # mid-burst
        state = cl.state_summary()
        busy = sum(
            sum(d["process_queue_lengths"]) + d["disk_backlog"]
            for d in state["devices"]
        )
        assert busy > 0
        assert state["now"] == pytest.approx(2.5)
        cl.drain()

    def test_cache_fill_monotone_under_traffic(self, small_catalog):
        cl = Cluster(ClusterConfig(scanner_rate=0.0), small_catalog.sizes, seed=1)
        gen = WikipediaTraceGenerator(small_catalog, rng=np.random.default_rng(3))
        OpenLoopDriver(cl).run(gen.constant_rate(100.0, 5.0))
        cl.drain()
        state = cl.state_summary()
        assert all(d["cache_fill"]["data"] > 0 for d in state["devices"])


def _fake_request(i):
    return types.SimpleNamespace(
        response_latency=0.001 * (i + 1),
        full_latency=0.002 * (i + 1),
        accept_wait=0.0001 * i,
        frontend_sojourn=0.0005 * (i + 1),
        backend_response=0.0004 * (i + 1),
    )


class TestHistogramBuffering:
    def test_buffered_counts_match_scalar_reference(self):
        rec = MetricsRecorder(latency_store="histogram")
        n = MetricsRecorder.HIST_FLUSH + 137  # cross one flush boundary
        ref = LatencyHistogram()
        for i in range(n):
            req = _fake_request(i)
            rec.record_request(req)
            ref.record(max(req.response_latency, 0.0))
        assert rec.n_requests == n  # no flush needed for the count
        hist = rec.histogram("response")
        assert hist.count == n
        assert hist.to_dict()["counts"] == ref.to_dict()["counts"]
        assert hist.quantile(0.99) == ref.quantile(0.99)

    def test_state_flushes_pending_buffer(self):
        rec = MetricsRecorder(latency_store="histogram")
        for i in range(10):  # well below the flush threshold
            rec.record_request(_fake_request(i))
        state = rec.state()
        for name in HISTOGRAM_FAMILIES:
            assert state["hists"][name]["count"] == 10

    def test_clear_drops_buffered_values(self):
        rec = MetricsRecorder(latency_store="histogram")
        for i in range(10):
            rec.record_request(_fake_request(i))
        rec.clear_requests()
        assert rec.n_requests == 0
        assert rec.histogram("response").count == 0
        rec.record_request(_fake_request(0))
        assert rec.histogram("response").count == 1

    def test_roundtrip_through_state(self):
        rec = MetricsRecorder(latency_store="histogram")
        for i in range(50):
            rec.record_request(_fake_request(i))
        clone = MetricsRecorder.from_state(rec.state())
        assert clone.state() == rec.state()
        clone.record_request(_fake_request(99))
        assert clone.histogram("response").count == 51


class TestDiskOpSlots:
    def test_preallocated_slots_invisible_in_exports(self):
        rec = MetricsRecorder(record_disk_samples=True)
        rec.record_disk_op("data", 0.01)
        assert rec.disk_sample_kinds() == ["data"]
        assert rec.disk_mark() == {"data": 1}
        assert set(rec.state()["disk"]) == {"data"}

    def test_unknown_kind_gets_slot_on_first_use(self):
        rec = MetricsRecorder(record_disk_samples=True)
        rec.record_disk_op("scan", 0.5)
        rec.record_disk_op("scan", 0.7)
        assert rec.disk_samples("scan").tolist() == [0.5, 0.7]
        assert rec.disk_sample_kinds() == ["scan"]

    def test_clear_rebinds_slots(self):
        rec = MetricsRecorder(record_disk_samples=True)
        rec.record_disk_op("index", 0.1)
        rec.clear()
        assert rec.disk_sample_kinds() == []
        rec.record_disk_op("index", 0.2)
        assert rec.disk_samples("index").tolist() == [0.2]

    def test_samples_since_skips_untouched_kinds(self):
        rec = MetricsRecorder(record_disk_samples=True)
        mark = rec.disk_mark()
        assert mark == {}
        rec.record_disk_op("meta", 0.3)
        since = rec.disk_samples_since(mark)
        assert list(since) == ["meta"]
        assert since["meta"].tolist() == [0.3]

    def test_disabled_recorder_records_nothing(self):
        rec = MetricsRecorder(record_disk_samples=False)
        rec.record_disk_op("data", 0.1)
        assert rec.disk_sample_kinds() == []
        assert rec.state()["disk"] == {}
