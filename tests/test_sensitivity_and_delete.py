"""Tests for the sensitivity analysis and the DELETE path."""

import dataclasses

import numpy as np
import pytest

from repro.model import (
    LatencyPercentileModel,
    rank_sensitivities,
    sla_sensitivities,
)


class TestSensitivity:
    def test_all_improvements_help(self, system_params):
        """Lower miss ratios, less load, faster disks: every derivative
        must point the right way (percentile falls as things worsen)."""
        s = sla_sensitivities(system_params, 0.05, "dev0")
        assert s.d_miss_index < 0.0
        assert s.d_miss_meta < 0.0
        assert s.d_miss_data < 0.0
        assert s.d_request_rate < 0.0
        assert s.d_disk_speed < 0.0

    def test_derivative_matches_secant(self, system_params):
        """The index-miss derivative must predict a small actual change."""
        s = sla_sensitivities(system_params, 0.05, "dev0")
        dev = system_params.device("dev0")
        base = LatencyPercentileModel(system_params).sla_percentile(0.05)
        delta = 0.02
        better = dataclasses.replace(
            dev,
            miss_ratios=dataclasses.replace(
                dev.miss_ratios, index=dev.miss_ratios.index - delta
            ),
        )
        params2 = dataclasses.replace(
            system_params,
            devices=tuple(
                better if d.name == "dev0" else d for d in system_params.devices
            ),
        )
        moved = LatencyPercentileModel(params2).sla_percentile(0.05)
        predicted_change = -delta * s.d_miss_index
        assert moved - base == pytest.approx(predicted_change, rel=0.25)

    def test_standardised_gains_positive(self, system_params):
        s = sla_sensitivities(system_params, 0.05, "dev0")
        gains = s.standardised_gains()
        assert len(gains) == 5
        assert all(g > 0.0 for g in gains.values())

    def test_ranking_sorted_descending(self, system_params):
        ranked = rank_sensitivities(system_params, 0.05)
        gains = [g for _d, _l, g in ranked if g == g]
        assert gains == sorted(gains, reverse=True)
        assert len(ranked) == 5 * len(system_params.devices)

    def test_hot_device_dominates_ranking(self, system_params):
        hot = dataclasses.replace(
            system_params,
            devices=(
                system_params.devices[0].scaled(1.5),
                *system_params.devices[1:],
            ),
        )
        ranked = rank_sensitivities(hot, 0.05)
        # The most valuable lever lives on the hot device.
        assert ranked[0][0] == "dev0"


class TestDelete:
    @pytest.fixture
    def cluster(self, small_catalog):
        from repro.simulator import Cluster, ClusterConfig

        return Cluster(
            ClusterConfig(cache_bytes_per_server=16 << 20, scanner_rate=0.0),
            small_catalog.sizes,
            seed=3,
        )

    def test_delete_completes_at_quorum(self, cluster):
        req = cluster.dispatch(7, is_delete=True)
        cluster.drain()
        assert req.is_complete
        assert req.is_write and req.is_delete
        assert req.write_acks == 3
        assert req.write_quorum == 2

    def test_delete_invalidates_caches(self, cluster):
        cluster.dispatch(7, is_write=True)
        cluster.drain()
        # Written entries are cached on every replica...
        assert any(7 in dev.index_cache for dev in cluster.devices)
        cluster.dispatch(7, is_delete=True)
        cluster.drain()
        # ...and the tombstone evicts them everywhere.
        assert not any(7 in dev.index_cache for dev in cluster.devices)
        assert not any(7 in dev.meta_cache for dev in cluster.devices)
        chunks = range(cluster.chunk_base[7], cluster.chunk_base[8])
        assert not any(c in dev.data_cache for dev in cluster.devices for c in chunks)

    def test_read_after_delete_misses(self, cluster):
        cluster.dispatch(9, is_write=True)
        cluster.drain()
        ops_before = cluster.total_disk_ops
        cluster.dispatch(9, is_delete=True)
        cluster.drain()
        ops_after_delete = cluster.total_disk_ops
        assert ops_after_delete > ops_before  # tombstone writes hit disk
        cluster.dispatch(9)
        cluster.drain()
        assert cluster.total_disk_ops > ops_after_delete  # cold read

    def test_delete_recorded_as_write(self, cluster):
        cluster.dispatch(3, is_delete=True)
        cluster.drain()
        tab = cluster.metrics.requests()
        assert len(tab) == 1
        assert bool(tab.is_write[0])
        assert tab.response_latency[0] > 0.0
