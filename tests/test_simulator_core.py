"""Tests for the simulation kernel, RNG streams, network, cache, disk."""

import numpy as np
import pytest

from repro.simulator import (
    Disk,
    HddProfile,
    MetricsRecorder,
    NetworkProfile,
    SimulationError,
    Simulator,
    RngStreams,
    StampLru,
)
from repro.simulator.disk import OP_DATA, OP_INDEX, OP_META


class TestSimulator:
    def test_event_ordering(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run_until_idle()
        assert log == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run_until_idle()
        assert log == ["a", "b", "c"]

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run_until(5.0)
        assert not fired
        assert sim.pending_events == 1
        sim.run_until(10.0)
        assert fired == [1]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)


class TestRngStreams:
    def test_reproducible(self):
        a = RngStreams(42).stream("disk0").random(5)
        b = RngStreams(42).stream("disk0").random(5)
        assert np.array_equal(a, b)

    def test_stream_independence_of_creation_order(self):
        r1 = RngStreams(1)
        r2 = RngStreams(1)
        _ = r1.stream("x")  # created first in r1 only
        a = r1.stream("y").random(3)
        b = r2.stream("y").random(3)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        r = RngStreams(0)
        assert not np.array_equal(r.stream("a").random(4), r.stream("b").random(4))

    def test_same_name_returns_same_generator(self):
        r = RngStreams(0)
        assert r.stream("a") is r.stream("a")


class TestNetwork:
    def test_transfer_delay(self):
        n = NetworkProfile(latency=1e-4, bandwidth=1e6)
        assert n.transfer_delay(1000) == pytest.approx(1e-4 + 1e-3)
        assert n.rtt == pytest.approx(2e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(latency=-1.0)
        with pytest.raises(ValueError):
            NetworkProfile(bandwidth=0.0)


class TestLruCache:
    """The byte-budget LRU contract of the one cache class, over int
    keys with per-key sizes."""

    def test_hit_miss_accounting(self):
        c = StampLru(100, 10, 4)
        assert not c.access(0)
        assert c.access(0)
        assert c.hits == 1 and c.misses == 1

    def test_byte_capacity_eviction(self):
        c = StampLru(100, [60, 50], 2)
        c.access(0)
        c.access(1)  # evicts 0
        assert 0 not in c
        assert 1 in c
        assert c.used_bytes == 50

    def test_lru_order(self):
        c = StampLru(100, 40, 3)
        c.access(0)
        c.access(1)
        c.access(0)  # refresh 0
        c.access(2)  # evicts 1 (LRU), not 0
        assert 0 in c and 1 not in c and 2 in c

    def test_oversized_entry_never_admitted(self):
        c = StampLru(100, [200, 10], 2)
        assert not c.access(0)
        assert not c.access_many([0])
        assert 0 not in c
        assert c.used_bytes == 0

    def test_evict_and_clear(self):
        c = StampLru(100, 10, 2)
        c.access(0)
        assert c.evict(0)
        assert not c.evict(0)
        c.access(1)
        c.clear()
        assert len(c) == 0 and c.used_bytes == 0

    def test_zero_capacity_cache_never_hits(self):
        c = StampLru(0, 1, 1)
        assert not c.access(0)
        assert not c.access(0)

    def test_reset_counters(self):
        c = StampLru(10, 1, 1)
        c.access(0)
        c.reset_counters()
        assert c.hits == 0 and c.misses == 0
        assert 0 in c  # contents survive


class TestHddProfile:
    def test_mean_service_time_matches_samples(self, rng):
        hdd = HddProfile()
        for kind, nbytes in ((OP_INDEX, 256), (OP_META, 768), (OP_DATA, 65536)):
            samples = np.array(
                [hdd.service_time(kind, nbytes, rng) for _ in range(8000)]
            )
            assert samples.mean() == pytest.approx(
                hdd.mean_service_time(kind, nbytes), rel=0.05
            )

    def test_operation_ordering(self):
        """Index (2 positioning rounds) is slower on average than meta."""
        hdd = HddProfile()
        assert hdd.mean_service_time(OP_INDEX) > hdd.mean_service_time(OP_META)

    def test_data_read_scales_with_bytes(self):
        hdd = HddProfile()
        small = hdd.mean_service_time(OP_DATA, 4096)
        large = hdd.mean_service_time(OP_DATA, 10_000_000)
        assert large - small == pytest.approx(
            (10_000_000 - 4096) / hdd.transfer_rate
        )

    def test_unknown_kind_rejected(self, rng):
        hdd = HddProfile()
        with pytest.raises(ValueError):
            hdd.service_time("erase", 1, rng)
        with pytest.raises(ValueError):
            hdd.mean_service_time("erase")

    def test_validation(self):
        with pytest.raises(ValueError):
            HddProfile(seek_mean=0.0)
        with pytest.raises(ValueError):
            HddProfile(index_rounds=0)


class TestDisk:
    def _mk(self, rng):
        sim = Simulator()
        rec = MetricsRecorder()
        disk = Disk(sim, HddProfile(), rng, recorder=rec)
        return sim, disk, rec

    def test_fcfs_completion_order(self, rng):
        sim, disk, _ = self._mk(rng)
        done = []
        for i in range(5):
            disk.submit(OP_META, 768, lambda i=i: done.append(i))
        sim.run_until_idle()
        assert done == list(range(5))
        assert disk.ops_served == 5

    def test_queue_length_while_busy(self, rng):
        sim, disk, _ = self._mk(rng)
        for _ in range(3):
            disk.submit(OP_META, 768, lambda: None)
        assert disk.busy
        assert disk.queue_length == 2

    def test_records_samples_by_kind(self, rng):
        sim, disk, rec = self._mk(rng)
        disk.submit(OP_INDEX, 256, lambda: None)
        disk.submit(OP_DATA, 65536, lambda: None)
        sim.run_until_idle()
        assert rec.disk_samples(OP_INDEX).size == 1
        assert rec.disk_samples(OP_DATA).size == 1

    def test_utilization_matches_theory(self, rng):
        """Poisson arrivals at rho=0.5: busy fraction ~ 0.5."""
        sim, disk, rec = self._mk(rng)
        hdd = disk.profile
        mean_service = hdd.mean_service_time(OP_META)
        lam = 0.5 / mean_service
        t = 0.0
        for _ in range(4000):
            t += rng.exponential(1.0 / lam)
            sim.schedule_at(t, disk.submit, OP_META, 768, lambda: None)
        sim.run_until_idle()
        samples = rec.disk_samples(OP_META)
        busy_fraction = samples.sum() / sim.now
        assert busy_fraction == pytest.approx(0.5, abs=0.05)
