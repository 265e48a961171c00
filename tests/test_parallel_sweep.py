"""Determinism of the parallel sweep engine and the exact-equivalence
contracts of the hot-path optimisations it rides on.

The headline assertion is ``run_sweep(jobs=4) == run_sweep(jobs=1)``
*bit for bit* (NaNs included): every batched draw, cache batch and
warm-state shortcut below must preserve the serial sample path exactly,
and this file pins each of those contracts individually so a violation
is localised instead of surfacing as an opaque sweep mismatch.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest

from repro.experiments import calibrate, run_sweep, scenario_s1
from repro.simulator.cache import StampLru
from repro.simulator.ring import HashRing
from repro.simulator.rng import BufferedIntegers
from repro.simulator.scanner import _Walk
from tests.test_stamp_lru import RefLru


def assert_points_equal(a, b):
    """Field-wise SweepPoint equality, treating NaN == NaN as equal."""

    def num_eq(x, y):
        x, y = float(x), float(y)
        return (math.isnan(x) and math.isnan(y)) or x == y

    assert a.rate == b.rate
    assert a.n_requests == b.n_requests
    assert num_eq(a.max_utilization, b.max_utilization)
    assert a.observed.keys() == b.observed.keys()
    for k in a.observed:
        assert num_eq(a.observed[k], b.observed[k]), (k, a.observed[k], b.observed[k])
    assert a.predicted.keys() == b.predicted.keys()
    for model in a.predicted:
        assert a.predicted[model].keys() == b.predicted[model].keys()
        for k in a.predicted[model]:
            assert num_eq(a.predicted[model][k], b.predicted[model][k]), (
                model,
                k,
                a.predicted[model][k],
                b.predicted[model][k],
            )


class TestParallelSweepDeterminism:
    def test_jobs4_bit_identical_to_serial(self, monkeypatch):
        # Force a real worker pool even on a single-core host (execute()
        # otherwise caps fan-out at the core count and runs inline).
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # The 900/s point drives the single S1 device far past saturation
        # so the analytic models go unstable -> NaN predictions, which
        # must also compare bit-for-bit.
        scenario = dataclasses.replace(
            scenario_s1(),
            n_objects=15_000,
            warm_accesses=40_000,
            rates=(40.0, 100.0, 900.0),
            window_duration=10.0,
            settle_duration=2.0,
        )
        cal = calibrate(scenario, disk_objects=800, parse_requests=50, seed=3)
        serial = run_sweep(scenario, seed=3, calibration=cal, jobs=1)
        pooled = run_sweep(scenario, seed=3, calibration=cal, jobs=4)

        assert (serial.scenario, serial.slas, serial.models) == (
            pooled.scenario,
            pooled.slas,
            pooled.models,
        )
        assert len(serial.points) == len(pooled.points)
        for a, b in zip(serial.points, pooled.points):
            assert_points_equal(a, b)
        # The saturated point really did exercise the NaN path.
        top = serial.points[-1]
        assert any(
            math.isnan(v) for preds in top.predicted.values() for v in preds.values()
        )


class TestPointsReleaseClusters:
    def test_first_cluster_dead_by_third_point(self, monkeypatch):
        """A finished point's cluster, a web of reference cycles, is
        collected before the sweep measures two more points."""
        import weakref

        from repro.experiments import parallel

        build = parallel.Cluster
        refs, alive = [], []

        def recording(*args, **kwargs):
            if len(refs) == 2:
                alive.append(refs[0]() is not None)
            cluster = build(*args, **kwargs)
            refs.append(weakref.ref(cluster))
            return cluster

        monkeypatch.setattr(parallel, "Cluster", recording)
        scenario = dataclasses.replace(
            scenario_s1(),
            n_objects=2_000,
            warm_accesses=4_000,
            rates=(40.0, 60.0, 80.0),
            window_duration=1.0,
            settle_duration=0.5,
        )
        cal = calibrate(scenario, disk_objects=200, parse_requests=20, seed=3)
        run_sweep(scenario, seed=3, calibration=cal, jobs=1)
        assert alive == [False]


class TestStreamEquivalence:
    def test_buffered_integers_matches_scalar_draws(self):
        scalar = np.random.default_rng(42)
        buffered = BufferedIntegers(np.random.default_rng(42), bound=7, block=16)
        assert [buffered.next() for _ in range(100)] == [
            int(scalar.integers(7)) for _ in range(100)
        ]

    def test_pick_many_matches_scalar_pick(self):
        ring = HashRing(64, 8, 3, np.random.default_rng(0))
        object_ids = np.arange(500)
        scalar_rng = np.random.default_rng(9)
        batch_rng = np.random.default_rng(9)
        scalar = [ring.pick(int(o), scalar_rng) for o in object_ids]
        batch = ring.pick_many(object_ids, batch_rng)
        assert batch.tolist() == scalar

    def test_replica_row_matches_devices_for(self):
        ring = HashRing(64, 8, 3, np.random.default_rng(1))
        for obj in range(200):
            assert ring.replica_row(obj) == ring.devices_for(obj).tolist()


def replay_reference(cap, size, keys):
    """Scalar-``access`` replay: the semantics every batch API must match."""
    ref = RefLru(cap, size)
    for key in keys:
        ref.access(key)
    return ref


def cache_state(c):
    return (list(c.od), c.used_bytes, c.hits, c.misses)


def stamp_state(c):
    """:func:`cache_state` of a :class:`StampLru`."""
    return (c.state().tolist(), c.used_bytes, c.hits, c.misses)


class TestCacheBatchEquivalence:
    @pytest.mark.parametrize("cap", [0, 96, 1024])
    def test_access_many_uniform(self, cap):
        rng = np.random.default_rng(cap + 1)
        keys = rng.integers(40, size=300).tolist()
        ref = replay_reference(cap, 32, keys)
        batched = StampLru(cap, 32, 40)
        hits = batched.access_many(keys)
        assert stamp_state(batched) == cache_state(ref)
        assert hits == ref.hits

    @pytest.mark.parametrize("cap", [0, 200, 4096])
    def test_access_pairs_variable(self, cap):
        """``access_many`` over per-key sizes (the data cache's chunks),
        some larger than the capacity."""
        rng = np.random.default_rng(cap + 2)
        keys = rng.integers(60, size=400)
        sizes = rng.integers(1, 300, 60)
        ref = replay_reference(cap, sizes, keys.tolist())
        batched = StampLru(cap, sizes, 60)
        hits = batched.access_many(keys)
        assert stamp_state(batched) == cache_state(ref)
        assert hits == ref.hits

    @pytest.mark.parametrize("trial", range(20))
    def test_install_tail_uniform_matches_replay(self, trial):
        rng = np.random.default_rng(trial)
        cap = int(rng.integers(0, 2000))
        size = int(rng.integers(0, 70))
        keys = rng.integers(50, size=int(rng.integers(1, 500))).tolist()
        ref = replay_reference(cap, size, keys)
        tail = StampLru(cap, size, 50)
        tail.install_tail(keys)
        assert tail.state().tolist() == list(ref.od)
        assert tail.used_bytes == ref.used_bytes

    @pytest.mark.parametrize("trial", range(20))
    def test_install_tail_reversed_matches_replay(self, trial):
        """``install_tail`` over per-key sizes, zero and oversize ones
        included."""
        rng = np.random.default_rng(100 + trial)
        cap = int(rng.integers(0, 3000))
        n_keys = 40
        sizes = rng.integers(0, 400, n_keys)
        keys = rng.integers(n_keys, size=int(rng.integers(1, 600))).tolist()
        ref = replay_reference(cap, sizes, keys)
        tail = StampLru(cap, sizes, n_keys)
        tail.install_tail(keys)
        assert tail.state().tolist() == list(ref.od)
        assert tail.used_bytes == ref.used_bytes

    def test_install_tail_requires_empty(self):
        c = StampLru(100, 10, 4)
        c.access(3)
        with pytest.raises(ValueError):
            c.install_tail([0])
        c = StampLru(100, [1, 10], 2)
        c.access(1)
        with pytest.raises(ValueError):
            c.install_tail([0])

    def test_snapshot_restore_roundtrip(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 40, 31)
        src = StampLru(512, sizes, 31)
        for k in rng.integers(30, size=200):
            src.access(int(k))
        snap = src.state()
        dst = StampLru(512, sizes, 31)
        dst.restore(snap)
        assert dst.state().tolist() == src.state().tolist()
        assert dst.used_bytes == src.used_bytes
        assert (dst.hits, dst.misses) == (0, 0)  # counters reset on restore
        # The snapshot is value-based: mutating the restored cache must
        # not leak back into a second restore.
        dst.access(30)
        again = StampLru(512, sizes, 31)
        again.restore(snap)
        assert again.state().tolist() == src.state().tolist()


class TestWalkBatching:
    @pytest.mark.parametrize("n,stride", [(97, 1), (97, 34), (100, 63), (8, 3)])
    @pytest.mark.parametrize("count", [1, 7, 250, 3000])
    def test_steps_matches_scalar_step(self, n, stride, count):
        a = _Walk(n, stride, phase=5, speed=1.0)
        b = _Walk(n, stride, phase=5, speed=1.0)
        assert a.steps(count).tolist() == [b.step() for _ in range(count)]
        assert a.pos == b.pos
        # And again from the advanced position (wrap state carries over).
        assert a.steps(count).tolist() == [b.step() for _ in range(count)]
        assert a.pos == b.pos
