"""Fleet-scale sharded execution: exactness and merge algebra.

Two layers of guarantees, audited separately:

* **Sharded bit-identity** -- for open-loop fleet episodes, running the
  clusters grouped into any shard plan, on any worker count, produces a
  merged metric state equal bit for bit to the serial run.  Audited
  across three seeds and two shard counts (plus a deliberately lopsided
  hand-written plan), with a process pool forced even on single-core
  hosts.
* **Merge algebra** -- :func:`merge_recorder_states` is associative,
  commutative and grouping-independent on arbitrary recorder states
  (Hypothesis-generated, both latency stores), which is what entitles
  shards to pre-merge their clusters before the parent's final merge.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.fleet import (
    FleetScenario,
    ShardPlan,
    build_cluster_tasks,
    cluster_owner,
    run_fleet,
)
from repro.simulator.metrics import MetricsRecorder, merge_recorder_states
from repro.simulator.request import RedundantRead, Request

SEEDS = (11, 12, 13)


def small_scenario(**overrides) -> FleetScenario:
    base = dict(
        n_clusters=4,
        objects_per_cluster=300,
        rate=400.0,
        duration=4.0,
        warm_accesses=2_000,
        write_fraction=0.1,
        arrival_window=1.0,
    )
    base.update(overrides)
    return FleetScenario(**base)


# ----------------------------------------------------------------------
# shard plans & ownership
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_contiguous_balanced(self):
        plan = ShardPlan.contiguous(10, 4)
        assert plan.n_shards == 4
        assert plan.n_clusters == 10
        sizes = [len(s) for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(c for s in plan.shards for c in s) == list(range(10))

    def test_contiguous_caps_at_one_cluster_per_shard(self):
        plan = ShardPlan.contiguous(3, 8)
        assert plan.n_shards == 3
        assert plan.shards == ((0,), (1,), (2,))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            ShardPlan(((0, 1), (1, 2)))  # duplicate
        with pytest.raises(ValueError):
            ShardPlan(((0, 2),))  # gap
        with pytest.raises(ValueError):
            ShardPlan(((0,), ()))  # empty shard
        with pytest.raises(ValueError):
            ShardPlan(())

    def test_plan_must_cover_scenario(self):
        with pytest.raises(ValueError, match="shard plan covers"):
            run_fleet(small_scenario(), shards=ShardPlan(((0, 1), (2,))))


class TestScenarioValidation:
    @pytest.mark.parametrize("field", ["rate", "duration", "arrival_window"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive(self, field, bad):
        # A NaN arrival window used to reach Cluster.run_until(nan) and
        # drain every pending event in one window.
        with pytest.raises(ValueError):
            small_scenario(**{field: bad})


class TestClusterOwner:
    def test_pure_and_in_range(self):
        ids = np.arange(10_000)
        owner = cluster_owner(ids, 7)
        assert owner.min() >= 0 and owner.max() < 7
        again = cluster_owner(ids, 7)
        np.testing.assert_array_equal(owner, again)

    def test_spreads_load(self):
        owner = cluster_owner(np.arange(10_000), 4)
        counts = np.bincount(owner, minlength=4)
        assert counts.min() > 1_500  # no starved cluster

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            cluster_owner(np.arange(4), 0)


class TestBuildTasks:
    def test_split_partitions_trace_exactly(self):
        scenario = small_scenario()
        _, tasks = build_cluster_tasks(scenario, seed=5)
        assert len(tasks) == scenario.n_clusters
        total = sum(t.times.size for t in tasks)
        merged_times = np.sort(np.concatenate([t.times for t in tasks]))
        # Regenerate the fleet trace the same way build_cluster_tasks does
        # and check the ownership split lost and invented nothing.
        _, tasks2 = build_cluster_tasks(scenario, seed=5)
        assert total == sum(t.times.size for t in tasks2)
        for a, b in zip(tasks, tasks2):
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.object_ids, b.object_ids)
        assert merged_times.size == total
        # each sub-trace keeps absolute, non-decreasing timestamps
        for t in tasks:
            assert np.all(np.diff(t.times) >= 0)

    def test_each_cluster_owns_its_objects(self):
        scenario = small_scenario()
        _, tasks = build_cluster_tasks(scenario, seed=5)
        for task in tasks:
            np.testing.assert_array_equal(
                cluster_owner(task.object_ids, scenario.n_clusters), task.index
            )
            np.testing.assert_array_equal(
                cluster_owner(task.warm_ids, scenario.n_clusters), task.index
            )

    def test_cluster_seeds_independent_of_layout(self):
        # Seeds are spawned by cluster index from the fleet root, so the
        # per-cluster entropy must not depend on anything but (seed, i).
        _, a = build_cluster_tasks(small_scenario(), seed=9)
        _, b = build_cluster_tasks(small_scenario(), seed=9)
        for ta, tb in zip(a, b):
            assert ta.seed.entropy == tb.seed.entropy
            assert ta.seed.spawn_key == tb.seed.spawn_key


# ----------------------------------------------------------------------
# sharded bit-identity
# ----------------------------------------------------------------------
class TestShardedBitIdentity:
    @pytest.fixture(scope="class")
    def serial_states(self):
        scenario = small_scenario()
        return scenario, {
            seed: run_fleet(scenario, seed=seed) for seed in SEEDS
        }

    @pytest.mark.parametrize("n_shards", (2, 4))
    def test_pooled_shards_bit_identical_per_seed(
        self, serial_states, monkeypatch, n_shards
    ):
        scenario, serial = serial_states
        # Force a real pool even on a single-core host.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for seed in SEEDS:
            sharded = run_fleet(scenario, seed=seed, shards=n_shards, jobs=2)
            assert sharded.n_shards == n_shards
            assert sharded.state == serial[seed].state, (seed, n_shards)
            assert sharded.n_requests == serial[seed].n_requests
            assert sharded.events == serial[seed].events
            assert sharded.disk_ops == serial[seed].disk_ops
            assert sharded.per_cluster == serial[seed].per_cluster

    def test_lopsided_plan_bit_identical(self, serial_states):
        scenario, serial = serial_states
        plan = ShardPlan(((2, 0), (1,), (3,)))
        odd = run_fleet(scenario, seed=SEEDS[0], shards=plan)
        assert odd.state == serial[SEEDS[0]].state

    def test_histogram_store_bit_identical(self, monkeypatch):
        scenario = small_scenario(latency_store="histogram")
        serial = run_fleet(scenario, seed=SEEDS[0])
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sharded = run_fleet(scenario, seed=SEEDS[0], shards=2, jobs=2)
        assert serial.state == sharded.state
        rec = sharded.recorder
        assert rec.n_requests == serial.n_requests
        assert rec.histogram("response").quantile(0.99) == pytest.approx(
            serial.recorder.histogram("response").quantile(0.99)
        )

    def test_recorder_round_trip(self, serial_states):
        _, serial = serial_states
        result = serial[SEEDS[0]]
        rec = result.recorder
        assert rec.n_requests == result.n_requests
        assert rec.state() == result.state  # state -> recorder -> state

    def test_seeds_actually_differ(self, serial_states):
        _, serial = serial_states
        states = [serial[s].state for s in SEEDS]
        assert states[0] != states[1] and states[1] != states[2]


# ----------------------------------------------------------------------
# merge algebra (Hypothesis)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_lat = st.floats(min_value=1e-5, max_value=10.0, allow_nan=False)


@st.composite
def recorder_states(draw, latency_store=None):
    """An arbitrary recorder state built through the real recording API."""
    store = latency_store or draw(st.sampled_from(("exact", "histogram")))
    rec = MetricsRecorder(record_disk_samples=True, latency_store=store)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        req = Request(
            rid=draw(st.integers(min_value=0, max_value=99)),
            object_id=draw(st.integers(min_value=0, max_value=999)),
            size_bytes=draw(st.integers(min_value=1, max_value=1 << 20)),
            chunk_bytes=65_536,
            is_write=draw(st.booleans()),
        )
        t0 = draw(_lat)
        req.arrival_time = t0
        req.frontend_id = 0
        req.device_id = draw(st.integers(min_value=0, max_value=7))
        req.connect_time = t0 + draw(_lat)
        req.accepted_time = req.connect_time + draw(_lat)
        req.backend_enqueue_time = req.accepted_time + draw(_lat)
        req.first_byte_time = req.backend_enqueue_time + draw(_lat)
        req.completion_time = req.first_byte_time + draw(_lat)
        rec.record_request(req)
    for kind in draw(
        st.lists(st.sampled_from(("data", "index", "meta")), max_size=4)
    ):
        rec.record_disk_op(kind, draw(_lat))
    # Per-strategy redundancy leaves, recorded through the real API so
    # the merge algebra is audited with winners / wasted-work / cancel
    # partial sums in play (including cross-state strategy mixing).
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        strategy = draw(st.sampled_from(("kofn", "quorum", "forkjoin")))
        fanout = draw(st.integers(min_value=2, max_value=3))
        parent = Request(
            rid=draw(st.integers(min_value=0, max_value=99)),
            object_id=draw(st.integers(min_value=0, max_value=999)),
            size_bytes=draw(st.integers(min_value=1, max_value=1 << 20)),
            chunk_bytes=65_536,
        )
        red = RedundantRead(strategy, None, fanout, 1, 1)
        parent.red = red
        for _i in range(fanout):
            probe = Request(
                rid=parent.rid,
                object_id=parent.object_id,
                size_bytes=parent.size_bytes,
                chunk_bytes=65_536,
            )
            probe.parent = parent
            red.probes.append(probe)
        red.winner_device = draw(st.integers(min_value=0, max_value=7))
        red.total_chunks = draw(st.integers(min_value=0, max_value=64))
        red.aborted = draw(st.integers(min_value=0, max_value=fanout - 1))
        red.cancel_count = draw(st.integers(min_value=0, max_value=fanout - 1))
        red.cancel_latency_sum = draw(_lat) if red.cancel_count else 0.0
        rec.record_redundant(parent)
    return rec.state()


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(states=st.lists(recorder_states(latency_store="exact"), min_size=1, max_size=5))
    def test_exact_merge_grouping_and_order_independent(self, states):
        self._check(states)

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.lists(
            recorder_states(latency_store="histogram"), min_size=1, max_size=5
        ),
    )
    def test_histogram_merge_grouping_and_order_independent(self, states):
        self._check(states)

    @staticmethod
    def _check(states):
        flat = merge_recorder_states(states)
        # Merged output is canonical: re-merging it changes nothing.
        assert merge_recorder_states([flat]) == flat
        # left fold of pairwise merges == one-shot merge (associativity,
        # and closure: a merged state is itself mergeable).  Raw states
        # carry rows in completion order, so the fold starts from the
        # canonicalised first state -- the domain the algebra lives on.
        acc = merge_recorder_states([states[0]])
        for s in states[1:]:
            acc = merge_recorder_states([acc, s])
        assert acc == flat
        # arbitrary two-way grouping
        k = len(states) // 2
        if 0 < k < len(states):
            grouped = merge_recorder_states(
                [
                    merge_recorder_states(states[:k]),
                    merge_recorder_states(states[k:]),
                ]
            )
            assert grouped == flat
        # order independence
        assert merge_recorder_states(list(reversed(states))) == flat

    def test_rejects_empty_and_mixed_modes(self):
        with pytest.raises(ValueError):
            merge_recorder_states([])
        a = MetricsRecorder(latency_store="exact").state()
        b = MetricsRecorder(latency_store="histogram").state()
        with pytest.raises(ValueError):
            merge_recorder_states([a, b])
