"""Fleet telemetry: sampled tracing, shard streaming, kernel profiler.

Covers docs/OBSERVABILITY.md "Fleet telemetry":

* the deterministic head-based sampling hash (scalar == vectorised,
  shard-plan-invariant, edge rates);
* :class:`SampledTracer` tracing exactly the hashed requests;
* :class:`TelemetryConfig` rejecting a sample rate outside [0, 1] and
  a non-finite or negative stream interval;
* bit-identity of the simulated state under every telemetry facility;
* :class:`ShardStreamer` snapshot deltas summing to the final totals in
  both latency-store modes;
* :class:`TopView` / ``cosmodel top`` aggregation and rendering;
* the kernel time profiler's attribution accounting;
* :func:`follow`'s truncate/rotate hardening;
* the Hypothesis property that merged histogram-mode percentiles stay
  within one log-bucket width of the exact serial quantiles for every
  shard plan.
"""

import dataclasses
import json
import math
import os
import types
from functools import lru_cache
from time import perf_counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import fleet as fleet_mod
from repro.experiments.fleet import (
    FleetScenario,
    ShardPlan,
    build_cluster_tasks,
    run_fleet,
)
from repro.obs.events import EventLog, follow, read_events
from repro.obs.telemetry import (
    SampledTracer,
    ShardStreamer,
    TelemetryConfig,
    TopView,
    is_sampled,
    merge_profile_rows,
    merge_shard_traces,
    render_kernel_profile,
    render_top,
    sample_mask,
    sample_salt,
    sample_threshold,
    shard_trace_path,
    write_profile,
)
from repro.obs.trace import Tracer, write_trace
from repro.simulator import Simulator
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.metrics import MetricsRecorder, merge_recorder_states
from repro.workload.arrivals import poisson_arrivals


def _mini_cluster(*, tracer=None, store="exact", seed=5):
    rng = np.random.default_rng(17)
    sizes = rng.integers(4_096, 2_000_000, size=400)
    return Cluster(
        ClusterConfig(), sizes, seed=seed, tracer=tracer, latency_store=store,
    )


def _drive(cluster, rate=2_000.0, duration=3.0, write_fraction=0.1, seed=23):
    arng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, 0.0, duration, arng)
    ids = arng.integers(0, cluster.object_sizes.size, size=times.size)
    writes = (
        arng.random(times.size) < write_fraction if write_fraction else None
    )
    cluster.schedule_arrivals(times, ids, writes)
    cluster.run_until(duration)
    cluster.drain()
    return cluster.metrics.state()


# ----------------------------------------------------------------------
# sampling hash
# ----------------------------------------------------------------------


class TestSamplingHash:
    def test_scalar_matches_vectorised(self):
        salt = sample_salt(99, 3)
        thr = sample_threshold(0.07)
        rids = np.arange(5_000, dtype=np.uint64)
        vec = sample_mask(rids, salt, thr)
        assert [is_sampled(int(r), salt, thr) for r in rids] == vec.tolist()

    def test_edge_rates(self):
        salt = sample_salt(0, 0)
        rids = np.arange(100)
        assert not sample_mask(rids, salt, sample_threshold(0.0)).any()
        assert sample_mask(rids, salt, sample_threshold(1.0)).all()
        with pytest.raises(ValueError):
            sample_threshold(1.5)

    def test_rate_is_roughly_honoured(self):
        salt = sample_salt(7, 1)
        thr = sample_threshold(0.05)
        got = sample_mask(np.arange(200_000), salt, thr).mean()
        assert got == pytest.approx(0.05, rel=0.1)

    def test_salt_depends_on_seed_and_cluster(self):
        assert sample_salt(1, 0) != sample_salt(2, 0)
        assert sample_salt(1, 0) != sample_salt(1, 1)

    def test_sampled_tracer_negative_rid_never_sampled(self):
        tracer = SampledTracer(1.0, seed=3)
        assert not tracer.wants(-1)
        assert tracer.wants(0)


# ----------------------------------------------------------------------
# SampledTracer in a cluster: gating, bit-identity
# ----------------------------------------------------------------------


class TestSampledTracerCluster:
    def test_state_bit_identical_to_untraced(self):
        base = _drive(_mini_cluster())
        traced = _drive(_mini_cluster(tracer=SampledTracer(0.02, seed=9)))
        assert traced == base

    def test_exactly_the_hashed_requests_are_traced(self):
        tracer = SampledTracer(0.05, seed=9)
        cl = _mini_cluster(tracer=tracer)
        _drive(cl)
        n = cl.metrics.n_requests
        got = {e["rid"] for e in tracer.events if "rid" in e}
        expected = {
            r for r in range(n)
            if is_sampled(r, tracer.salt, tracer.threshold)
        }
        assert got == expected
        # Sampled requests carry the full span set, including the
        # frontend admission span emitted on the batch path.
        kinds = {e["k"] for e in tracer.events}
        assert {"admit", "request"} <= kinds

    def test_full_tracer_emits_admit_for_every_request(self):
        tracer = Tracer()
        cl = _mini_cluster(tracer=tracer)
        _drive(cl)
        admits = [e for e in tracer.events if e["k"] == "admit"]
        assert len(admits) == cl.metrics.n_requests


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------


class TestTelemetryConfigValidation:
    @pytest.mark.parametrize("rate", [math.nan, -0.1, 1.5])
    def test_rejects_sample_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            TelemetryConfig(trace_sample_rate=rate)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, -1.0])
    def test_rejects_bad_stream_interval(self, interval):
        with pytest.raises(ValueError, match="stream_interval"):
            TelemetryConfig(stream_interval=interval)

    def test_accepts_edges(self):
        assert TelemetryConfig(trace_sample_rate=1.0, stream_interval=0.0).tracing
        assert not TelemetryConfig(trace_sample_rate=0.0).tracing

    def test_cli_rejects_nan_sample_before_running(self, monkeypatch):
        from repro.cli import main

        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(fleet_mod, "run_fleet", no_episode)
        with pytest.raises(ValueError, match="trace_sample_rate"):
            main(["fleet", "--sample", "nan"])


# ----------------------------------------------------------------------
# fleet integration: invariance and bit-identity
# ----------------------------------------------------------------------

_FLEET = FleetScenario(
    n_clusters=3, objects_per_cluster=200, rate=400.0, duration=3.0,
    warm_accesses=1_500, write_fraction=0.1,
)


class TestFleetTelemetry:
    def test_state_bit_identical_and_sample_set_invariant(self, tmp_path):
        off = run_fleet(_FLEET, seed=7)

        def sampled(shards, jobs, sub):
            tdir = tmp_path / sub
            tdir.mkdir()
            bus = tmp_path / f"{sub}-bus.jsonl"
            telem = TelemetryConfig(
                trace_sample_rate=0.05, trace_seed=11, trace_dir=str(tdir),
                bus_path=str(bus), stream_interval=0.1, profile=True,
            )
            res = run_fleet(
                dataclasses.replace(_FLEET, telemetry=telem),
                seed=7, shards=shards, jobs=jobs,
            )
            rids = sorted(
                (r["cluster"], r["rid"])
                for r in merge_shard_traces(tdir)
                if "rid" in r
            )
            finished = [
                e for e in read_events(bus, strict=False)
                if e["event"] == "shard_finished"
            ]
            assert len(finished) == _FLEET.n_clusters
            return res, rids

        serial, rids_serial = sampled(None, None, "serial")
        pooled, rids_pooled = sampled(3, 2, "pooled")
        assert serial.state == off.state
        assert pooled.state == off.state
        assert rids_serial == rids_pooled
        assert rids_serial  # 5% of ~1200 requests: must sample something
        assert len(serial.trace_paths) == _FLEET.n_clusters
        # The profiler attributes every event of the pooled run too.
        assert sum(r["events"] for r in pooled.profile) == pooled.events

    def test_streaming_deltas_sum_to_totals(self, tmp_path):
        for store in ("exact", "histogram"):
            bus = tmp_path / f"bus-{store}.jsonl"
            telem = TelemetryConfig(
                bus_path=str(bus), stream_interval=0.0
            )
            scn = dataclasses.replace(
                _FLEET, latency_store=store, telemetry=telem
            )
            off = run_fleet(dataclasses.replace(_FLEET, latency_store=store),
                            seed=7)
            on = run_fleet(scn, seed=7)
            assert on.state == off.state
            view = TopView().feed_all(read_events(bus, strict=False))
            assert view.meta.get("finished") is True
            # Accumulated per-family deltas reconstruct the total count.
            assert view.families["response"]["count"] == on.n_requests
            qs = view.merged_quantiles()
            assert all(v > 0 for v in qs.values())
            text = view.render()
            assert "done" in text and f"{on.n_requests} requests" in text

    def test_profiler_accounts_for_fleet_events(self):
        telem = TelemetryConfig(profile=True)
        on = run_fleet(dataclasses.replace(_FLEET, telemetry=telem), seed=7)
        off = run_fleet(_FLEET, seed=7)
        assert on.state == off.state
        assert on.profile
        total = sum(r["events"] for r in on.profile)
        # Every kernel event is either dispatched (attributed) or still
        # pending; a drained fleet attributes everything scheduled.
        assert total == on.events
        assert all(r["total_s"] >= 0.0 for r in on.profile)


# ----------------------------------------------------------------------
# kernel time profiler (unit level)
# ----------------------------------------------------------------------


class TestKernelProfiler:
    def test_lane_heap_and_dynamic_attribution(self):
        def lane_handler(a, b):
            seen.append(a)

        def heap_handler(a, b):
            seen.append(a)

        sim = Simulator()
        seen = []
        lane_op = sim.register(lane_handler)
        heap_op = sim.register(heap_handler)
        sim.enable_profile()
        sim.schedule_runs(np.arange(50) * 1e-3, lane_op, np.arange(50))
        for i in range(3):
            sim.schedule_op(0.5 + i, heap_op, 100 + i)
        sim.schedule(1.0, seen.append, -1)  # opcode 0: dynamic invoke
        sim.run_until_idle()
        rows = sim.profile_snapshot()
        by_name = {r["name"].rsplit(".", 1)[-1]: r for r in rows}
        assert set(by_name) == {"lane_handler", "heap_handler", "<dynamic>"}
        assert by_name["lane_handler"]["events"] == 50
        assert by_name["heap_handler"]["events"] == 3
        assert by_name["<dynamic>"]["events"] == 1
        assert all(set(r) == {"name", "events", "total_s"} for r in rows)
        assert all(r["total_s"] >= 0.0 for r in rows)
        assert len(seen) == 54

    def test_late_registration_is_wrapped(self):
        sim = Simulator()
        sim.enable_profile()
        op = sim.register(lambda a, b: None)
        sim.schedule_runs(np.array([0.5]), op, np.array([0]))
        sim.run_until_idle()
        rows = sim.profile_snapshot()
        assert sum(r["events"] for r in rows) == 1

    def test_snapshot_empty_when_off(self):
        assert Simulator().profile_snapshot() == []

    def test_profiling_is_bit_identical(self):
        a = _mini_cluster()
        a.sim.enable_profile()
        b = _mini_cluster()
        assert _drive(a) == _drive(b)
        # The episode is scanned: the lazy maintenance scan has its own
        # row, which carries calls and no kernel events of its own.
        assert a.config.scanner_rate > 0.0
        rows = {r["name"]: r for r in a.sim.profile_snapshot()}
        scan = rows["MaintenanceScanner.advance"]
        assert scan["calls"] >= rows["StorageDevice.connect"]["events"] > 0
        assert scan["events"] == 0 and scan["total_s"] > 0.0
        assert sum(r["events"] for r in rows.values()) == a.sim.events_scheduled
        # Profiling off leaves the bound method in place: no wrapper.
        assert b.devices[0].scan == b.scanners[0].advance

    def test_span_time_leaves_the_enclosing_handler(self):
        def burn(now):
            t0 = perf_counter()
            while perf_counter() - t0 < 0.002:
                pass

        sim = Simulator()
        site = types.SimpleNamespace(burn=burn)
        sim.profile_span(site, "burn")
        assert site.burn is burn  # registration alone wraps nothing
        op = sim.register(lambda a, b: site.burn(sim.now))
        sim.enable_profile()
        for i in range(5):
            sim.schedule_op(0.1 * i, op, i)
        sim.run_until_idle()
        rows = sim.profile_snapshot()
        span = next(r for r in rows if r["name"].endswith("burn"))
        handler = next(r for r in rows if r is not span)
        assert (span["calls"], span["events"]) == (5, 0)
        assert handler["events"] == 5
        assert span["total_s"] >= 0.01
        assert handler["total_s"] < 0.5 * span["total_s"]

    def test_merge_render_and_doc(self, tmp_path):
        rows_a = [{"name": "x", "events": 12, "total_s": 0.6}]
        rows_b = [{"name": "x", "events": 1, "total_s": 0.25},
                  {"name": "y", "events": 4, "total_s": 2.0}]
        merged = merge_profile_rows([rows_a, rows_b])
        assert [r["name"] for r in merged] == ["y", "x"]  # by total_s
        x = next(r for r in merged if r["name"] == "x")
        assert x["events"] == 13 and x["total_s"] == pytest.approx(0.85)
        text = render_kernel_profile(merged)
        assert "y" in text and "100.0%" in text
        path = tmp_path / "profile.json"
        write_profile(merged, path, seed=0)
        from repro.obs.report import render_report

        assert "kernel time profile" in render_report(str(path))


# ----------------------------------------------------------------------
# TopView details
# ----------------------------------------------------------------------


class TestTopView:
    def test_straggler_detection_and_render(self):
        view = TopView()
        view.feed({"event": "fleet_started", "n_clusters": 2, "t": 0.0})
        view.feed({"event": "shard_snapshot", "cluster": 0, "sim_now": 9.0,
                   "duration": 10.0, "n_requests": 900, "events": 5000,
                   "events_per_sec": 1e4, "t": 1.0,
                   "families": {}, "geometry": None})
        view.feed({"event": "shard_snapshot", "cluster": 1, "sim_now": 1.0,
                   "duration": 10.0, "n_requests": 100, "events": 700,
                   "events_per_sec": 1e3, "t": 1.0,
                   "families": {}, "geometry": None})
        assert view.stragglers() == [1]
        text = view.render()
        assert "STRAGGLER" in text
        view.feed({"event": "shard_finished", "cluster": 1, "sim_now": 10.0,
                   "duration": 10.0, "n_requests": 1000, "events": 7000,
                   "t": 2.0})
        assert view.stragglers() == []

    def test_render_top_empty_bus(self):
        assert "fleet" in render_top([])


# ----------------------------------------------------------------------
# shard trace merge
# ----------------------------------------------------------------------


class TestTraceMerge:
    def test_merge_orders_by_cluster_then_rid(self, tmp_path):
        write_trace(
            [{"k": "request", "rid": 5, "t0": 0.0, "t1": 1.0},
             {"k": "request", "rid": 2, "t0": 0.0, "t1": 1.0}],
            shard_trace_path(tmp_path, 1),
        )
        write_trace(
            [{"k": "admit", "rid": 7, "t0": 0.0, "t1": 0.0},
             {"k": "request", "rid": 7, "t0": 0.0, "t1": 1.0}],
            shard_trace_path(tmp_path, 0),
        )
        out = tmp_path / "merged.jsonl"
        merged = merge_shard_traces(tmp_path, out)
        assert [(r["cluster"], r["rid"]) for r in merged] == [
            (0, 7), (0, 7), (1, 2), (1, 5)
        ]
        # One request's spans stay contiguous and in emission order.
        assert [r["k"] for r in merged[:2]] == ["admit", "request"]
        assert out.exists()


# ----------------------------------------------------------------------
# follow() hardening: truncate / rotate / torn lines
# ----------------------------------------------------------------------


class TestFollowHardening:
    def test_survives_truncation_mid_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("point_queued", scenario="S1", index=0, rate=1.0)
            log.emit("point_queued", scenario="S1", index=1, rate=2.0)
        gen = follow(path, poll_interval=0.01, timeout=2.0)
        assert next(gen)["event"] == "point_queued"
        assert next(gen)["event"] == "point_queued"
        # Writer truncates and starts a fresh log in place.
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "sweep_started", "t": 0,
                                 "pid": 1}) + "\n")
            fh.write(json.dumps({"event": "sweep_finished", "t": 1,
                                 "pid": 1}) + "\n")
        rest = [e["event"] for e in gen]
        assert rest == ["sweep_started", "sweep_finished"]

    def test_survives_rotation_mid_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("point_queued", scenario="S1", index=0, rate=1.0)
        gen = follow(path, poll_interval=0.01, timeout=2.0)
        assert next(gen)["event"] == "point_queued"
        # Rotate: a brand-new inode replaces the tailed file.
        fresh = tmp_path / "fresh.jsonl"
        with EventLog(fresh) as log:
            log.emit("fleet_started", n_clusters=1)
            log.emit("fleet_finished", n_clusters=1, n_requests=0)
        os.replace(fresh, path)
        rest = [e["event"] for e in gen]
        assert rest == ["fleet_started", "fleet_finished"]

    def test_torn_interior_line_is_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "sweep_started", "t": 0,
                                 "pid": 1}) + "\n")
            fh.write('{"event": "torn\n')
            fh.write(json.dumps({"event": "sweep_finished", "t": 1,
                                 "pid": 1}) + "\n")
        got = [e["event"] for e in follow(path, once=True)]
        assert got == ["sweep_started", "sweep_finished"]
        # Tolerant reader mode matches; strict mode raises.
        assert len(read_events(path, strict=False)) == 2
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_reappearing_file_resets_cleanly(self, tmp_path):
        # Delete-and-recreate while the tail is suspended: the filesystem
        # may recycle the inode, so the follower detects the swap by the
        # size dropping below its read offset.  (A recreated file that is
        # *longer* than the old offset on a recycled inode is
        # indistinguishable from an append -- the torn-line skip keeps
        # the tail alive even then, it just cannot replay the overlap.)
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("point_queued", scenario="S1", index=0, rate=1.0)
            log.emit("point_queued", scenario="S1", index=1, rate=2.0)
        gen = follow(path, poll_interval=0.01, timeout=1.0)
        assert next(gen)["event"] == "point_queued"
        assert next(gen)["event"] == "point_queued"
        os.unlink(path)
        with open(path, "w") as fh:
            fh.write(json.dumps({"event": "sweep_started", "t": 0,
                                 "pid": 1}) + "\n")
            fh.write(json.dumps({"event": "sweep_finished", "t": 1,
                                 "pid": 1}) + "\n")
        rest = [e["event"] for e in gen]
        assert rest == ["sweep_started", "sweep_finished"]


# ----------------------------------------------------------------------
# property: merged histogram percentiles vs exact serial quantiles
# ----------------------------------------------------------------------

_PROP_N = 4
_PROP_SCENARIO = FleetScenario(
    n_clusters=_PROP_N, objects_per_cluster=150, rate=350.0, duration=3.0,
    warm_accesses=1_000, write_fraction=0.1,
)
_PROP_FAMILIES = ("response", "full", "backend_response")
_FAMILY_COLUMNS = {
    "response": "response_latency",
    "full": "full_latency",
    "backend_response": "backend_response",
}


@lru_cache(maxsize=None)
def _property_data():
    """Per-cluster histogram states + exact per-family serial values."""
    hist_scn = dataclasses.replace(_PROP_SCENARIO, latency_store="histogram")
    catalog, tasks = build_cluster_tasks(hist_scn, 3)
    hist_states = tuple(
        fleet_mod._run_cluster(hist_scn, catalog.sizes, t)["state"]
        for t in tasks
    )
    exact = run_fleet(_PROP_SCENARIO, seed=3)
    table = exact.recorder.requests()
    values = {
        fam: np.sort(np.maximum(getattr(table, col), 0.0))
        for fam, col in _FAMILY_COLUMNS.items()
    }
    return hist_states, values


@st.composite
def _shard_plans(draw):
    labels = draw(
        st.lists(
            st.integers(0, _PROP_N - 1), min_size=_PROP_N, max_size=_PROP_N
        )
    )
    groups: dict[int, list[int]] = {}
    for cluster, label in enumerate(labels):
        groups.setdefault(label, []).append(cluster)
    return ShardPlan(tuple(tuple(g) for g in groups.values()))


class TestHistogramMergeProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(plan=_shard_plans())
    def test_merged_percentiles_within_one_bucket(self, plan):
        hist_states, exact_values = _property_data()
        # Merge within each shard, then across shards -- exactly the
        # runtime's associative merge tree for this plan.
        merged = merge_recorder_states(
            [
                merge_recorder_states([hist_states[c] for c in shard])
                for shard in plan.shards
            ]
        )
        canonical = merge_recorder_states(list(hist_states))
        assert merged == canonical  # plan-independent, bit for bit
        rec = MetricsRecorder.from_state(merged)
        for family in _PROP_FAMILIES:
            hist = rec.histogram(family)
            growth = hist.growth
            vals = exact_values[family]
            assert hist.count == vals.size
            for q in (0.5, 0.9, 0.99):
                rank = max(1, int(math.ceil(q * vals.size)))
                p_exact = float(vals[rank - 1])
                if p_exact < hist.min_value:
                    continue  # below histogram resolution (underflow)
                p_hist = hist.quantile(q)
                assert p_exact / growth <= p_hist <= p_exact * growth


# ----------------------------------------------------------------------
# CLI: fleet / top / watch --fleet
# ----------------------------------------------------------------------


class TestTelemetryCli:
    def test_fleet_top_report_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        bus = tmp_path / "events.jsonl"
        profile = tmp_path / "profile.json"
        out = tmp_path / "fleet.json"
        rc = main([
            "fleet", "--clusters", "2", "--objects", "150", "--rate", "200",
            "--duration", "2", "--warm", "500", "--sample", "0.05",
            "--trace-dir", str(tmp_path / "traces"), "--bus", str(bus),
            "--interval", "0", "--profile", "--profile-out", str(profile),
            "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "fleet: 2 clusters" in text
        assert "kernel time profile" in text
        assert profile.exists() and out.exists()
        manifest = json.loads(
            (tmp_path / "fleet.json.manifest.json").read_text()
        )
        assert manifest["extra"]["telemetry"] is True

        rc = main(["top", str(bus), "--once"])
        assert rc == 0
        top_text = capsys.readouterr().out
        assert "done" in top_text and "p99" in top_text

        rc = main(["watch", str(bus), "--once", "--fleet"])
        assert rc == 0
        watch_text = capsys.readouterr().out
        assert "fleet_finished" in watch_text

        rc = main(["report", str(profile)])
        assert rc == 0
        assert "kernel time profile" in capsys.readouterr().out
