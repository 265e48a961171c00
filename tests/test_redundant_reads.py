"""Tests for redundant read dispatch (kofn / quorum / forkjoin) and the
order-statistic latency model layered on top of it (docs/REDUNDANCY.md).

The load-bearing guarantees:

* **k=1 reduction** -- ``kofn``/``forkjoin`` at ``read_fanout=1`` route
  through the untouched single-replica path and are bit-identical to
  ``read_strategy="single"`` (compared via the full metrics state);
* **conservation** -- every parent request completes exactly once, and
  every probe reaches a terminal state (completed or aborted);
* **attribution** -- the winner replica, wasted work and cancellation
  lag recorded per strategy add up against first principles;
* **model reduction** -- :class:`RedundantLatencyModel` at ``single`` /
  ``fanout=1`` *is* :class:`LatencyPercentileModel`, bit-for-bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Degenerate, Gamma, LatticeError
from repro.model import (
    DISK_QUEUE_MODELS,
    CacheMissRatios,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    SystemParameters,
    LatencyPercentileModel,
    ParameterError,
    RedundantLatencyModel,
    rank_read_strategies,
    redundant_sla_percentile,
    replica_sets_from_ring,
)
from repro.model.backend import BackendModel
from repro.model.frontend import accept_wait
from repro.model.redundancy import _MASS_THRESHOLD
from repro.queueing import UnstableQueueError
from repro.simulator import Cluster, ClusterConfig, Connection, Request
from repro.simulator.core import SimulationError
from repro.simulator.faults import DeviceFailStop, FaultSchedule
from repro.simulator.frontend import READ_STRATEGIES
from repro.simulator.metrics import MetricsRecorder, merge_recorder_states
from repro.simulator.ring import HashRing
from repro.workload import ObjectCatalog, OpenLoopDriver, WikipediaTraceGenerator


@pytest.fixture(scope="module")
def catalog():
    return ObjectCatalog.synthetic(
        6_000, mean_size=32_768.0, size_sigma=1.0, rng=np.random.default_rng(21)
    )


def run(catalog, *, rate=40.0, duration=8.0, seed=3, **cfg):
    cluster = Cluster(
        ClusterConfig(cache_bytes_per_server=16 << 20, **cfg),
        catalog.sizes,
        seed=seed,
    )
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(seed + 1))
    trace = gen.constant_rate(rate, duration)
    OpenLoopDriver(cluster).run(trace)
    cluster.drain()
    return cluster, trace


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="read_strategy"):
            ClusterConfig(read_strategy="hedged")

    def test_single_rejects_fanout(self):
        with pytest.raises(ValueError, match="read_fanout"):
            ClusterConfig(read_strategy="single", read_fanout=2)

    def test_quorum_rejects_fanout(self):
        with pytest.raises(ValueError, match="read_fanout"):
            ClusterConfig(read_strategy="quorum", read_fanout=2)

    def test_fanout_bounded_by_replicas(self):
        with pytest.raises(ValueError, match="read_fanout"):
            ClusterConfig(read_strategy="kofn", read_fanout=4, replicas=3)

    def test_redundant_excludes_timeout(self):
        with pytest.raises(ValueError, match="timeout"):
            ClusterConfig(read_strategy="kofn", read_fanout=2, request_timeout=1.0)

    def test_valid_configs_accepted(self):
        for strategy, fanout in [
            ("single", 1),
            ("kofn", 2),
            ("kofn", 3),
            ("quorum", 1),
            ("forkjoin", 2),
        ]:
            cfg = ClusterConfig(read_strategy=strategy, read_fanout=fanout)
            assert cfg.read_strategy == strategy


class TestKofN:
    def test_conservation_and_probe_count(self, catalog):
        cluster, trace = run(catalog, read_strategy="kofn", read_fanout=2)
        assert cluster.metrics.n_requests == len(trace)
        stats = cluster.metrics.redundant_stats()
        assert stats["strategy"] == "kofn"
        assert stats["requests"] == len(trace)
        assert stats["probes"] == 2 * len(trace)

    def test_probes_hit_distinct_replicas(self, catalog):
        cluster = Cluster(
            ClusterConfig(
                cache_bytes_per_server=16 << 20,
                read_strategy="kofn",
                read_fanout=3,
            ),
            catalog.sizes,
            seed=5,
        )
        req = cluster.dispatch(7)
        cluster.drain()
        devices = [p.device_id for p in req.red.probes]
        assert len(devices) == 3
        assert len(set(devices)) == 3
        row = set(cluster.ring.replica_row(7))
        assert set(devices) <= row

    def test_winner_attribution(self, catalog):
        cluster = Cluster(
            ClusterConfig(
                cache_bytes_per_server=16 << 20,
                read_strategy="kofn",
                read_fanout=2,
            ),
            catalog.sizes,
            seed=5,
        )
        req = cluster.dispatch(11)
        cluster.drain()
        red = req.red
        assert red.winner_probe is not None
        assert red.winner_device == red.winner_probe.device_id
        assert req.device_id == red.winner_device
        # The parent's stage timestamps are the winner's.
        assert req.backend_start_time == red.winner_probe.backend_start_time
        assert req.first_byte_time == pytest.approx(red.decided_time)
        # The parent finishes when the winner finishes, not before.
        assert req.completion_time == pytest.approx(
            red.winner_probe.completion_time
        )

    def test_losers_cancelled(self, catalog):
        cluster, trace = run(
            catalog, read_strategy="kofn", read_fanout=2, rate=60.0
        )
        stats = cluster.metrics.redundant_stats()
        # Every request decides a winner and cancels its one loser
        # (cancelled probes count whether they aborted early or had
        # already finished first-byte and ran to completion).
        assert stats["cancel_count"] + stats["aborted"] >= len(trace)
        # Post-cancel lag is at least the cancel message's network hop.
        assert stats["mean_cancel_latency"] >= cluster.config.network.latency

    def test_wasted_work_positive_under_speculation(self, catalog):
        cluster, _ = run(catalog, read_strategy="kofn", read_fanout=2)
        stats = cluster.metrics.redundant_stats()
        assert stats["wasted_chunks"] > 0
        winners = stats["winners"]
        assert sum(winners.values()) == stats["requests"]
        assert all(dev >= 0 for dev in winners)

    def test_dead_replica_shrinks_candidate_set(self, catalog):
        """With one device fail-stopped, kofn keeps dispatching (to the
        alive members of each row) and never probes the dead device."""
        cluster = Cluster(
            ClusterConfig(
                cache_bytes_per_server=16 << 20,
                read_strategy="kofn",
                read_fanout=2,
            ),
            catalog.sizes,
            seed=6,
        )
        cluster.inject_faults(
            FaultSchedule((DeviceFailStop(device=0, start=0.0, end=math.inf),))
        )
        gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(7))
        trace = gen.constant_rate(30.0, 6.0)
        OpenLoopDriver(cluster).run(trace)
        cluster.drain()
        assert cluster.metrics.n_requests == len(trace)
        stats = cluster.metrics.redundant_stats()
        assert 0 not in stats["winners"]
        assert cluster.devices[0].counters.requests == 0


class TestBitIdentity:
    """kofn/forkjoin at fanout 1 ARE the single-replica path."""

    @pytest.mark.parametrize("strategy", ["kofn", "forkjoin"])
    def test_fanout_one_matches_single(self, catalog, strategy):
        base, _ = run(catalog, read_strategy="single", seed=9)
        red, _ = run(catalog, read_strategy=strategy, read_fanout=1, seed=9)
        assert red.metrics.state() == base.metrics.state()

    def test_fanout_one_records_no_strategy_leaf(self, catalog):
        cluster, _ = run(catalog, read_strategy="kofn", read_fanout=1)
        stats = cluster.metrics.redundant_stats()
        assert stats["strategy"] is None
        assert stats["requests"] == 0


class TestQuorum:
    def test_majority_completion(self, catalog):
        cluster = Cluster(
            ClusterConfig(cache_bytes_per_server=16 << 20, read_strategy="quorum"),
            catalog.sizes,
            seed=5,
        )
        req = cluster.dispatch(3)
        cluster.drain()
        red = req.red
        assert red.fanout == 3 and red.done_need == 2
        done = sorted(p.completion_time for p in red.probes if not p.cancelled)
        # The parent responded exactly when the 2nd fastest probe did.
        assert req.completion_time == pytest.approx(done[1])

    def test_all_replicas_probed(self, catalog):
        cluster, trace = run(catalog, read_strategy="quorum", rate=30.0, duration=6.0)
        stats = cluster.metrics.redundant_stats()
        assert stats["strategy"] == "quorum"
        assert stats["probes"] == 3 * len(trace)
        assert cluster.metrics.n_requests == len(trace)


class TestForkJoin:
    def test_fragments_cover_object_exactly(self, catalog):
        cluster = Cluster(
            ClusterConfig(
                cache_bytes_per_server=16 << 20,
                read_strategy="forkjoin",
                read_fanout=3,
                chunk_bytes=8_192,
            ),
            catalog.sizes,
            seed=5,
        )
        req = cluster.dispatch(2)
        cluster.drain()
        red = req.red
        assert sum(p.n_chunks for p in red.probes) == req.n_chunks
        offsets = sorted((p.chunk_offset, p.n_chunks) for p in red.probes)
        cursor = 0
        for off, count in offsets:
            assert off == cursor
            cursor += count
        assert sum(p.size_bytes for p in red.probes) == req.size_bytes

    def test_fragments_share_the_parent_chunk_space(self):
        # One server hosts all three replicas, so every fragment and the
        # whole-object read below go through one page cache.
        sizes = np.array([10_000, 100_000, 7_000], dtype=np.int64)
        cluster = Cluster(
            ClusterConfig(
                n_devices=3,
                devices_per_server=3,
                read_strategy="forkjoin",
                read_fanout=3,
                chunk_bytes=8_192,
                scanner_rate=0.0,
            ),
            sizes,
            seed=5,
        )
        data = cluster.caches[0][2]
        parent = list(range(cluster.chunk_base[1], cluster.chunk_base[2]))
        assert len(parent) == 13
        req = cluster.dispatch(1)
        cluster.drain()
        assert len(req.red.probes) == 3
        assert sorted(data.state().tolist()) == parent
        assert (data.hits, data.misses) == (0, 13)
        assert data.used_bytes == sizes[1]
        # A whole-object read on the same server hits every chunk.
        whole = Request(1, 1, int(sizes[1]), 8_192)
        whole.arrival_time = cluster.sim.now
        cluster.devices[0].connect(Connection(whole, None))
        cluster.drain()
        assert whole.is_complete
        assert (data.hits, data.misses) == (13, 13)
        # The tombstone evicts every chunk of the object.
        cluster.dispatch(1, is_delete=True)
        cluster.drain()
        assert len(data) == 0 and data.used_bytes == 0

    def test_join_semantics_no_waste(self, catalog):
        cluster, trace = run(
            catalog, read_strategy="forkjoin", read_fanout=2, rate=30.0
        )
        stats = cluster.metrics.redundant_stats()
        # Striped fragments are all needed: nothing cancelled, nothing
        # wasted; the join waits for the slowest fragment.
        assert stats["cancel_count"] == 0
        assert stats["aborted"] == 0
        assert stats["wasted_chunks"] == 0
        assert cluster.metrics.n_requests == len(trace)

    def test_parent_completes_at_last_fragment(self, catalog):
        cluster = Cluster(
            ClusterConfig(
                cache_bytes_per_server=16 << 20,
                read_strategy="forkjoin",
                read_fanout=2,
            ),
            catalog.sizes,
            seed=8,
        )
        req = cluster.dispatch(4)
        cluster.drain()
        assert req.completion_time == pytest.approx(
            max(p.completion_time for p in req.red.probes)
        )


class TestWriteQuorumShrink:
    """Satellite: fail-stop interaction with the write fan-out."""

    def test_write_completes_at_alive_majority(self, catalog):
        cluster = Cluster(
            ClusterConfig(cache_bytes_per_server=16 << 20, n_devices=3),
            catalog.sizes,
            seed=4,
        )
        cluster.inject_faults(
            FaultSchedule((DeviceFailStop(device=0, start=0.0, end=math.inf),))
        )
        cluster.run_until(0.1)
        req = cluster.dispatch(1, is_write=True)
        cluster.drain()
        # 3-replica row, one dead: the write fans out to the 2 alive
        # replicas and completes at their majority (2 of 2).
        assert req.is_complete
        assert req.write_quorum == 2
        assert req.write_acks == 2
        assert cluster.devices[0].counters.write_requests == 0

    def test_fully_dead_row_errors_loudly(self, catalog):
        cluster = Cluster(
            ClusterConfig(cache_bytes_per_server=16 << 20, n_devices=4),
            catalog.sizes,
            seed=4,
        )
        # Kill devices 0-2 and write an object whose 3-replica row lies
        # entirely inside the dead set (device 3 survives, so the
        # schedule is legal but this row has no quorum left).
        dead = {0, 1, 2}
        doomed = next(
            oid
            for oid in range(len(catalog.sizes))
            if set(cluster.ring.replica_row(oid)) <= dead
        )
        cluster.inject_faults(
            FaultSchedule(
                tuple(
                    DeviceFailStop(device=d, start=0.0, end=math.inf)
                    for d in dead
                )
            )
        )
        cluster.run_until(0.1)
        cluster.dispatch(doomed, is_write=True)
        with pytest.raises(SimulationError, match="every replica is fail-stopped"):
            cluster.drain()


class TestStrategyMetrics:
    def test_state_round_trip(self, catalog):
        cluster, _ = run(catalog, read_strategy="kofn", read_fanout=2)
        state = cluster.metrics.state()
        red = state["redundant"]
        assert red["strategy"] == "kofn"
        rebuilt = MetricsRecorder.from_state(state)
        assert rebuilt.redundant_stats() == cluster.metrics.redundant_stats()

    def test_merge_adds_leaves(self, catalog):
        a, _ = run(catalog, read_strategy="kofn", read_fanout=2, seed=3)
        b, _ = run(catalog, read_strategy="kofn", read_fanout=2, seed=4)
        merged = merge_recorder_states([a.metrics.state(), b.metrics.state()])
        ra, rb = a.metrics.redundant_stats(), b.metrics.redundant_stats()
        out = merged["redundant"]
        assert out["strategy"] == "kofn"
        for key in ("requests", "probes", "aborted", "wasted_chunks", "cancel_count"):
            assert out[key] == ra[key] + rb[key]
        assert math.fsum(out["cancel_sums"]) == pytest.approx(
            ra["cancel_sum"] + rb["cancel_sum"]
        )

    def test_merge_mixed_strategies(self, catalog):
        a, _ = run(catalog, read_strategy="kofn", read_fanout=2, seed=3)
        b, _ = run(catalog, read_strategy="quorum", seed=4)
        merged = merge_recorder_states([a.metrics.state(), b.metrics.state()])
        assert merged["redundant"]["strategy"] == "mixed"


# ----------------------------------------------------------------------
# the analytic layer
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def ring():
    return HashRing(64, 4, 3, np.random.default_rng(5))


@pytest.fixture(scope="module")
def replica_rows(ring):
    return replica_sets_from_ring(ring, [f"dev{i}" for i in range(4)])


class TestReplicaSetsFromRing:
    def test_weights_sum_to_one(self, replica_rows):
        assert math.fsum(w for _, w in replica_rows) == pytest.approx(1.0)
        for names, weight in replica_rows:
            assert len(names) == 3 and len(set(names)) == 3
            assert weight > 0.0

    def test_exclude_shrinks_rows(self, ring):
        rows = replica_sets_from_ring(
            ring, [f"dev{i}" for i in range(4)], exclude=("dev3",)
        )
        assert all("dev3" not in names for names, _ in rows)
        assert math.fsum(w for _, w in rows) == pytest.approx(1.0)

    def test_empty_row_is_an_error(self, ring):
        with pytest.raises(ParameterError, match="lost every member"):
            replica_sets_from_ring(
                ring,
                [f"dev{i}" for i in range(4)],
                exclude=("dev0", "dev1", "dev2", "dev3"),
            )


class TestRedundantModel:
    SLA = 0.100

    def assert_same_predictions(self, model, base):
        assert model.sla_percentile(self.SLA) == base.sla_percentile(self.SLA)
        slas = [0.01, 0.05, 0.1]
        assert np.array_equal(model.sla_percentiles(slas), base.sla_percentiles(slas))
        assert model.latency_quantile(0.99) == base.latency_quantile(0.99)
        assert model.mean_latency == base.mean_latency
        assert model.utilizations() == base.utilizations()

    def test_single_is_exact_delegation(self, system_params, replica_rows):
        self.assert_same_predictions(
            RedundantLatencyModel(system_params, strategy="single"),
            LatencyPercentileModel(system_params),
        )

    @pytest.mark.parametrize("strategy", ["kofn", "forkjoin"])
    def test_fanout_one_is_exact_delegation(
        self, system_params, replica_rows, strategy
    ):
        self.assert_same_predictions(
            RedundantLatencyModel(
                system_params, replica_rows, strategy=strategy, fanout=1
            ),
            LatencyPercentileModel(system_params),
        )

    def test_speculation_beats_single(self, system_params, replica_rows):
        """min-of-2 stochastically dominates one replica draw, so the
        predicted percentile can only improve (on fixed parameters)."""
        base = LatencyPercentileModel(system_params).sla_percentile(self.SLA)
        kofn = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        )
        assert kofn.sla_percentile(self.SLA) >= base - 1e-9

    def test_join_is_slowest_order(self, system_params, replica_rows):
        kofn = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        ).sla_percentile(self.SLA)
        quorum = RedundantLatencyModel(
            system_params, replica_rows, strategy="quorum"
        ).sla_percentile(self.SLA)
        forkjoin = RedundantLatencyModel(
            system_params, replica_rows, strategy="forkjoin", fanout=2
        ).sla_percentile(self.SLA)
        # On identical rows: min-of-2 >= majority-of-3 at a fixed t is
        # not guaranteed in general, but max-of-2 is always the worst
        # of the three orders drawn from the same subsets.
        assert forkjoin <= kofn + 1e-9
        assert forkjoin <= quorum + 1e-9

    def test_requires_replica_sets(self, system_params):
        with pytest.raises(ParameterError, match="replica_sets"):
            RedundantLatencyModel(system_params, strategy="kofn", fanout=2)

    def test_unknown_device_name(self, system_params):
        with pytest.raises(ParameterError, match="unknown device"):
            RedundantLatencyModel(
                system_params,
                ((("devX", "dev1"), 1.0),),
                strategy="kofn",
                fanout=2,
            )

    def test_composition_waits_for_the_first_query(
        self, monkeypatch, system_params, replica_rows
    ):
        """Building a kofn@2 model and reading its utilisations inverts
        nothing; the first query composes each replica row once, and
        later queries reuse that composition."""
        from repro.distributions import evalcache
        from repro.model import redundancy

        calls = []
        compose = redundancy._compose_grid

        def counting(*args, **kwargs):
            calls.append(1)
            return compose(*args, **kwargs)

        def counters():
            stats = evalcache.stats()
            return stats["hits"], stats["misses"]

        evalcache.clear()
        reference = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        ).sla_percentile(self.SLA)
        reference_counters = counters()

        monkeypatch.setattr(redundancy, "_compose_grid", counting)
        evalcache.clear()
        model = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        )
        model.utilizations()
        assert calls == []
        assert model.sla_percentile(self.SLA) == reference
        assert len(calls) == len(replica_rows)
        assert counters() == reference_counters
        model.sla_percentiles([0.05, 0.1])
        model.latency_quantile(0.9)
        model.mean_latency
        assert len(calls) == len(replica_rows)

    def test_uncaptured_mass_is_an_error(
        self, monkeypatch, system_params, replica_rows
    ):
        """A lattice short of the mass threshold after the last doubling
        raises, reporting what it captured, instead of answering."""
        from repro.model import redundancy

        monkeypatch.setattr(redundancy, "_MASS_THRESHOLD", 1.5)
        model = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        )
        with pytest.raises(LatticeError, match="captured only") as info:
            model.sla_percentile(self.SLA)
        assert 0.9995 < info.value.captured <= 1.0 + 1e-9

    def test_equilibrium_accept_wait_composes(self, system_params, replica_rows):
        """The equilibrium accept wait is a truncated lattice, so no
        horizon captures all of a race's mass; the moment lattice stops
        widening there instead of running the horizon away."""
        model = RedundantLatencyModel(
            system_params,
            replica_rows,
            strategy="kofn",
            fanout=2,
            accept_mode="equilibrium",
        )
        race = model._rows[0][0]
        assert 0.0 < race.mean < 0.1
        assert 0.9 < model.sla_percentile(self.SLA) <= 1.0

    @pytest.mark.parametrize("n_processes", [1, 16])
    def test_equilibrium_accept_wait_keeps_its_mass(self, replica_rows, n_processes):
        """The accept-wait lattice spans the excess law's mean, not the
        wait's: at S16's low loads the wait is mostly its zero atom, and
        a span of E[W] lost over half of the excess mass."""
        params = _skewed_params(n_processes)
        for device in params.devices:
            wait = BackendModel.solve(device).waiting_time
            excess = accept_wait(wait, "equilibrium")
            assert excess.grid.probs.sum() == pytest.approx(1.0, abs=1e-5)
            expected = wait.second_moment / (2.0 * wait.mean)
            assert excess.mean == pytest.approx(expected, rel=0.01)
        model = RedundantLatencyModel(
            params, replica_rows, strategy="kofn", fanout=2, accept_mode="equilibrium"
        )
        assert 0.9 < model.sla_percentile(self.SLA) <= 1.0

    def test_constructor_still_rejects_a_saturated_device(
        self, system_params, replica_rows
    ):
        with pytest.raises(UnstableQueueError):
            RedundantLatencyModel(
                system_params.scaled(10.0), replica_rows, strategy="kofn", fanout=2
            )

    def test_rejects_unknown_strategy(self, system_params, replica_rows):
        with pytest.raises(ParameterError, match="strategy"):
            RedundantLatencyModel(system_params, replica_rows, strategy="hedged")

    def test_quantile_inverts_cdf(self, system_params, replica_rows):
        model = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        )
        t = model.latency_quantile(0.9)
        assert model.sla_percentile(t) == pytest.approx(0.9, abs=5e-3)

    def test_utilizations_unchanged_by_strategy(self, system_params, replica_rows):
        single = RedundantLatencyModel(system_params, strategy="single")
        kofn = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        )
        for name, util in single.utilizations().items():
            assert kofn.utilizations()[name] == pytest.approx(util)

    @pytest.mark.parametrize("strategy", ["kofn", "quorum"])
    @pytest.mark.parametrize("disk_queue", DISK_QUEUE_MODELS)
    def test_utilizations_honour_disk_queue(
        self, system_params, replica_rows, strategy, disk_queue
    ):
        """With several processes the disk sojourn feeds the union
        operation, so utilisation depends on the disk-queue model the
        redundant model was built with, exactly as in the base model."""
        params = dataclasses.replace(
            system_params,
            devices=tuple(
                dataclasses.replace(d, n_processes=16) for d in system_params.devices
            ),
        )
        base = LatencyPercentileModel(params, disk_queue=disk_queue)
        model = RedundantLatencyModel(
            params, replica_rows, strategy=strategy, fanout=2, disk_queue=disk_queue
        )
        assert model.utilizations() == base.utilizations()


class TestWhatIfHooks:
    SLA = 0.100

    def test_redundant_sla_percentile_matches_model(
        self, system_params, replica_rows
    ):
        direct = RedundantLatencyModel(
            system_params, replica_rows, strategy="kofn", fanout=2
        ).sla_percentile(self.SLA)
        assert (
            redundant_sla_percentile(
                system_params, replica_rows, self.SLA, strategy="kofn", fanout=2
            )
            == direct
        )

    def test_rank_read_strategies(self, system_params, replica_rows):
        ranked = rank_read_strategies(
            system_params, replica_rows, self.SLA, fanouts=(2,)
        )
        labels = [label for label, _ in ranked]
        assert set(labels) == {"single", "kofn@2", "quorum", "forkjoin@2"}
        values = [v for _, v in ranked]
        finite = [v for v in values if not math.isnan(v)]
        assert finite == sorted(finite, reverse=True)
        # NaN (saturated) candidates, if any, sort last.
        assert all(
            not math.isnan(v) or i >= len(finite) for i, v in enumerate(values)
        )

    def test_strategy_universe_matches_simulator(self):
        assert READ_STRATEGIES == ("single", "kofn", "quorum", "forkjoin")


# ----------------------------------------------------------------------
# toward saturation
# ----------------------------------------------------------------------


def _skewed_params(n_processes: int) -> SystemParameters:
    """Four devices of unequal load and miss ratios (S1 or S16 shape)."""
    disk = DiskLatencyProfile(
        index=Gamma(2.4, 140.0), meta=Gamma(1.8, 210.0), data=Gamma(2.0, 235.0)
    )
    devices = tuple(
        DeviceParameters(
            f"dev{i}",
            rate,
            rate * 1.04,
            CacheMissRatios(0.3 + 0.05 * i, 0.4, 0.7 + 0.04 * i),
            disk,
            Degenerate(0.0004),
            n_processes,
        )
        for i, rate in enumerate((30.0, 24.0, 18.0, 12.0))
    )
    return SystemParameters(FrontendParameters(12, Degenerate(0.001)), devices)


@pytest.fixture(scope="module")
def saturation_cases(replica_rows):
    """Per shape: the parameters and the largest stable load multiplier."""
    cases = {}
    for n_processes in (1, 16):
        params = _skewed_params(n_processes)
        cases[n_processes] = (
            params,
            LatencyPercentileModel(params).max_stable_scale(tol=1e-6),
        )
    return cases, replica_rows


class TestTowardSaturation:
    """Toward rho -> 1 every redundant composition either converges on
    its lattice or raises an explicit error; it never returns a lattice
    that silently lost mass."""

    SLAS = (0.01, 0.05, 0.1, 0.5, 2.0)

    @given(
        strategy=st.sampled_from(["kofn", "quorum", "forkjoin"]),
        n_processes=st.sampled_from([1, 16]),
        # The load is ``1 - 10**gap`` of the largest stable multiplier.
        gap=st.floats(min_value=-5.0, max_value=-0.3),
    )
    @settings(max_examples=15, deadline=None)
    def test_converged_lattice_or_explicit_error(
        self, saturation_cases, strategy, n_processes, gap
    ):
        cases, rows = saturation_cases
        params, top = cases[n_processes]
        scaled = params.scaled(top * (1.0 - 10.0**gap))
        names = [d.name for d in scaled.devices]
        rows = tuple(
            (tuple(names[int(d[3:])] for d in row), w) for row, w in rows
        )
        try:
            model = RedundantLatencyModel(
                scaled, rows, strategy=strategy, fanout=2
            )
            answers = model.sla_percentiles(self.SLAS)
        except (UnstableQueueError, LatticeError):
            return
        for component in model.system_latency.components:
            assert component.grid.tail_mass <= 1.0 - _MASS_THRESHOLD
        assert np.all(np.isfinite(answers))
        assert np.all((answers >= 0.0) & (answers <= 1.0))
        assert np.all(np.diff(answers) >= 0.0)
