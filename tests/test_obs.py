"""Observability layer: histogram store, tracer, manifests,
``cosmodel report`` -- plus the latent-bug regression tests that rode
along in the same change (empty-window NaN, memoised Wilson ``z``,
bounded eval cache).

The two load-bearing guarantees verified here:

* **tracing is free when off and harmless when on** -- a traced run is
  bit-identical to an untraced run of the same seed in every simulated
  quantity, because tracers never touch a random stream;
* **the histogram store is honest** -- streamed percentiles agree with
  the exact order statistics to within one log-bucket width.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.distributions import evalcache
from repro.obs import (
    LatencyHistogram,
    Tracer,
    build_manifest,
    manifest_path_for,
    read_trace,
    write_manifest,
)
from repro.obs.manifest import MANIFEST_KIND, RunTimer, config_hash
from repro.obs.report import render_report
from repro.simulator import Cluster, ClusterConfig
from repro.simulator.metrics import (
    HISTOGRAM_FAMILIES,
    MetricsRecorder,
    sla_percentile,
    sla_percentile_ci,
)
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.wikipedia import WikipediaTraceGenerator


# ----------------------------------------------------------------------
# the histogram store
# ----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_quantiles_within_one_bucket_width(self, rng):
        values = rng.lognormal(mean=-4.0, sigma=1.2, size=20_000)
        hist = LatencyHistogram()
        hist.record_many(values)
        for q in (0.5, 0.9, 0.99, 0.999):
            # Nearest-rank order statistic, the estimator the histogram
            # discretises; the bucket midpoint must sit within one
            # growth factor of it.
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            approx = hist.quantile(q)
            assert exact / hist.growth <= approx <= exact * hist.growth

    def test_record_scalar_matches_record_many(self, rng):
        values = rng.gamma(2.0, 0.01, size=500)
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in values:
            a.record(float(v))
        b.record_many(values)
        assert np.array_equal(a._counts, b._counts)
        assert a.count == b.count == 500
        assert a.total == pytest.approx(b.total)

    def test_underflow_and_overflow_are_kept(self):
        hist = LatencyHistogram(min_value=1e-3, max_value=1.0)
        hist.record_many([0.0, 1e-9, 5.0, 100.0])
        assert hist.count == 4
        assert hist.quantile(0.0) == hist.min_value  # underflow bucket
        assert hist.quantile(1.0) == hist.max_value  # overflow bucket

    def test_merge_equals_single_store(self, rng):
        xs = rng.gamma(2.0, 0.01, size=1_000)
        ys = rng.gamma(3.0, 0.02, size=1_500)
        merged = LatencyHistogram()
        merged.record_many(xs)
        other = LatencyHistogram()
        other.record_many(ys)
        merged.merge(other)
        combined = LatencyHistogram()
        combined.record_many(np.concatenate([xs, ys]))
        assert np.array_equal(merged._counts, combined._counts)
        assert merged.count == combined.count
        assert merged.mean() == pytest.approx(combined.mean())

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError, match="geometry"):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_decade=32))

    def test_dict_round_trip(self, rng):
        hist = LatencyHistogram()
        hist.record_many(rng.gamma(2.0, 0.01, size=300))
        doc = json.loads(json.dumps(hist.to_dict()))
        back = LatencyHistogram.from_dict(doc)
        assert np.array_equal(back._counts, hist._counts)
        assert back.count == hist.count
        for q in (0.5, 0.99):
            assert back.quantile(q) == hist.quantile(q)

    def test_fraction_leq_tracks_exact_within_bucket(self, rng):
        values = rng.gamma(2.0, 0.01, size=5_000)
        hist = LatencyHistogram()
        hist.record_many(values)
        threshold = float(np.median(values))
        exact = float((values <= threshold).mean())
        # Bias is bounded by the mass of the threshold's bucket.
        lo, hi = threshold / hist.growth, threshold * hist.growth
        bucket_mass = float(((values >= lo) & (values < hi)).mean())
        assert abs(hist.fraction_leq(threshold) - exact) <= bucket_mass + 1e-12

    def test_nan_rejected(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="NaN"):
            hist.record(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            hist.record_many([0.1, float("nan")])

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert np.isnan(hist.quantile(0.5))
        assert np.isnan(hist.fraction_leq(1.0))
        assert np.isnan(hist.mean())


# ----------------------------------------------------------------------
# the tracer and its simulator wiring
# ----------------------------------------------------------------------


def _traced_episode(catalog, tracer, latency_store="exact"):
    root = np.random.SeedSequence(42)
    cluster_seed, trace_seed = root.spawn(2)
    cluster = Cluster(
        ClusterConfig(request_timeout=0.5),
        catalog.sizes,
        seed=cluster_seed,
        tracer=tracer,
        latency_store=latency_store,
    )
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
    cluster.warm_caches(gen.warmup_accesses(5_000))
    driver = OpenLoopDriver(cluster)
    driver.run(gen.constant_rate(60.0, 5.0, write_fraction=0.15))
    cluster.run_until(cluster.sim.now + 5.0)
    return cluster


class TestTracer:
    def test_traced_run_bit_identical_to_untraced(self, small_catalog):
        plain = _traced_episode(small_catalog, None).metrics.requests()
        traced = _traced_episode(small_catalog, Tracer()).metrics.requests()
        assert len(plain) == len(traced)
        for f in dataclasses.fields(plain):
            np.testing.assert_array_equal(
                getattr(plain, f.name), getattr(traced, f.name), err_msg=f.name
            )

    def test_spans_nest_correctly(self, small_catalog):
        tracer = Tracer()
        _traced_episode(small_catalog, tracer)
        requests = {e["rid"]: e for e in tracer.spans("request")}
        assert requests, "no request spans recorded"
        for e in tracer.events:
            assert e["t1"] >= e["t0"], e
        for e in tracer.spans("frontend"):
            # Frontend queue+parse starts at arrival and ends before the
            # whole request does.
            req = requests.get(e["rid"])
            if req is not None:
                assert e["t0"] == pytest.approx(req["t0"])
                assert e["t1"] >= req["t0"]
        fe_end = {e["rid"]: e["t1"] for e in tracer.spans("frontend")}
        for e in tracer.spans("accept"):
            # accept() waits start when the connect lands on the device,
            # one network latency after the frontend routed the request.
            if e["rid"] in fe_end:
                assert e["t0"] >= fe_end[e["rid"]] - 1e-12
        for e in tracer.spans("disk"):
            assert e["wait"] >= -1e-12
            assert e["svc"] > 0.0

    def test_every_completed_request_has_a_span(self, small_catalog):
        tracer = Tracer()
        cluster = _traced_episode(small_catalog, tracer)
        assert len(tracer.spans("request")) == cluster.metrics.n_requests

    def test_write_round_trip(self, small_catalog, tmp_path):
        tracer = Tracer()
        _traced_episode(small_catalog, tracer)
        path = tmp_path / "spans.jsonl"
        tracer.write(path)
        back = list(read_trace(path))
        assert back == tracer.events

    def test_phase_tags_stamp_spans(self, small_catalog):
        tracer = Tracer()
        root = np.random.SeedSequence(1)
        cluster = Cluster(
            ClusterConfig(), small_catalog.sizes, seed=root, tracer=tracer
        )
        gen = WikipediaTraceGenerator(
            small_catalog, rng=np.random.default_rng(2)
        )
        cluster.sim.schedule_at(2.0, tracer.set_phase, "fault", 2.0)
        driver = OpenLoopDriver(cluster)
        driver.run(gen.constant_rate(50.0, 4.0))
        cluster.run_until(cluster.sim.now + 5.0)
        tags = {e["ph"] for e in tracer.spans("request")}
        assert tags == {"", "fault"}
        for e in tracer.spans("request"):
            if e["t1"] < 2.0:
                assert e["ph"] == ""

    def test_disabled_tracer_attribute_is_none(self, small_catalog):
        cluster = _traced_episode(small_catalog, None)
        assert cluster.tracer is None
        for dev in cluster.devices:
            assert dev.tracer is None and dev.disk.tracer is None
        for fe in cluster.frontends:
            assert fe.tracer is None


# ----------------------------------------------------------------------
# histogram-mode recorder
# ----------------------------------------------------------------------


class TestHistogramModeRecorder:
    def test_streamed_percentiles_match_exact_rows(self, small_catalog):
        exact = _traced_episode(small_catalog, None).metrics
        streamed = _traced_episode(
            small_catalog, None, latency_store="histogram"
        ).metrics
        table = exact.requests()
        assert streamed.n_requests == len(table)
        hist = streamed.histogram("response")
        clamped = np.maximum(table.response_latency, 0.0)
        for q in (0.5, 0.99):
            ref = float(np.quantile(clamped, q, method="inverted_cdf"))
            assert ref / hist.growth <= hist.quantile(q) <= ref * hist.growth

    def test_mode_errors(self):
        exact = MetricsRecorder()
        with pytest.raises(RuntimeError, match="exact mode"):
            exact.histogram()
        streamed = MetricsRecorder(latency_store="histogram")
        with pytest.raises(RuntimeError, match="histogram mode"):
            streamed.requests()
        with pytest.raises(KeyError, match="unknown latency family"):
            streamed.histogram("nope")
        with pytest.raises(ValueError, match="latency_store"):
            MetricsRecorder(latency_store="rows")

    def test_clear_resets_histograms(self, small_catalog):
        metrics = _traced_episode(
            small_catalog, None, latency_store="histogram"
        ).metrics
        assert metrics.n_requests > 0
        metrics.clear_requests()
        assert metrics.n_requests == 0
        assert metrics.histogram("response").count == 0
        assert set(metrics.histograms()) == set(HISTOGRAM_FAMILIES)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------


class TestManifest:
    def test_build_and_sidecar(self, tmp_path):
        artifact = tmp_path / "result.json"
        artifact.write_text("{}\n")
        with RunTimer() as timer:
            pass
        doc = build_manifest(
            command="cosmodel test",
            seed=7,
            config={"scale": "ci"},
            wall_s=timer.wall_s,
            cpu_s=timer.cpu_s,
            extra={"note": "unit"},
        )
        assert doc["kind"] == MANIFEST_KIND
        assert doc["seed"] == 7
        assert doc["config_hash"] == config_hash({"scale": "ci"})
        assert doc["versions"]["numpy"]
        assert set(doc["evalcache"]) >= {
            "hits",
            "misses",
            "evictions",
            "laplace_bytes",
            "grid_bytes",
            "inversion_bytes",
            "max_bytes",
        }
        sidecar = write_manifest(doc, artifact)
        assert sidecar == manifest_path_for(artifact)
        assert json.loads(sidecar.read_text())["extra"] == {"note": "unit"}

    def test_config_hash_stable_and_discriminating(self, system_params):
        assert config_hash(system_params) == config_hash(system_params)
        assert config_hash({"a": 1}) != config_hash({"a": 2})


# ----------------------------------------------------------------------
# cosmodel report
# ----------------------------------------------------------------------


class TestReportCommand:
    def test_trace_report(self, small_catalog, tmp_path):
        from repro.cli import main

        tracer = Tracer()
        _traced_episode(small_catalog, tracer)
        path = tmp_path / "spans.jsonl"
        tracer.write(path)
        out = render_report(str(path))
        assert "per-phase latency attribution" in out
        assert "disk operations" in out
        assert main(["report", str(path)]) == 0

    def test_manifest_report(self, tmp_path):
        artifact = tmp_path / "table.txt"
        artifact.write_text("data\n")
        write_manifest(build_manifest(command="x", seed=1), artifact)
        out = render_report(str(manifest_path_for(artifact)))
        assert "run manifest" in out
        # A plain-text artifact resolves through its sidecar.
        assert "run manifest" in render_report(str(artifact))

    def test_histogram_report(self, tmp_path, rng):
        hist = LatencyHistogram()
        hist.record_many(rng.gamma(2.0, 0.01, size=200))
        path = tmp_path / "hist.json"
        path.write_text(json.dumps(hist.to_dict()))
        out = render_report(str(path))
        assert "latency histogram" in out and "p99" in out

    def test_manifestless_artifact_degrades_to_note(self, tmp_path):
        # Artifacts that predate provenance recording (or were moved
        # without their sidecar) get a "no manifest" note, not an error.
        from repro.cli import main

        bare = tmp_path / "notes.txt"
        bare.write_text("hello\n")
        out = render_report(str(bare))
        assert "no manifest sidecar" in out
        assert main(["report", str(bare)]) == 0
        assert main(["report", str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# latent-bug regressions
# ----------------------------------------------------------------------


class TestEmptyWindowRegression:
    def test_sla_percentile_empty_is_nan(self):
        assert np.isnan(sla_percentile(np.empty(0), 0.1))

    def test_sla_percentile_ci_empty_is_nan_triple(self):
        est, lo, hi = sla_percentile_ci(np.empty(0), 0.1)
        assert np.isnan(est) and np.isnan(lo) and np.isnan(hi)

    def test_non_empty_unchanged(self):
        latencies = np.array([0.05, 0.15, 0.08])
        assert sla_percentile(latencies, 0.1) == pytest.approx(2 / 3)
        est, lo, hi = sla_percentile_ci(latencies, 0.1)
        assert 0.0 <= lo <= est <= hi <= 1.0


class TestWilsonZMemo:
    def test_ppf_called_once_per_confidence(self, monkeypatch):
        from repro.simulator import metrics

        metrics._Z_CACHE.clear()
        calls = []
        real_ndtri = metrics._ndtri
        monkeypatch.setattr(
            metrics, "_ndtri", lambda q: calls.append(q) or real_ndtri(q)
        )
        latencies = np.array([0.05, 0.15, 0.08])
        for _ in range(5):
            sla_percentile_ci(latencies, 0.1, confidence=0.95)
            sla_percentile_ci(latencies, 0.1, confidence=0.99)
        assert len(calls) == 2
        assert metrics._wilson_z(0.95) == pytest.approx(1.959964, abs=1e-5)


class TestEvalcacheBound:
    def test_eviction_counter_and_entry_bound(self, monkeypatch):
        evalcache.clear()
        monkeypatch.setattr(evalcache, "MAX_ENTRIES", 4)
        try:

            class Tok:
                def __init__(self, i):
                    self.i = i

                def cache_token(self):
                    return ("tok", self.i)

            for i in range(10):
                evalcache.cached_grid(Tok(i), 0.001, 64, lambda: i)
            stats = evalcache.stats()
            assert stats["grid_entries"] == 4
            assert stats["evictions"] == 6
            assert stats["grid_calls"] == 10
            assert stats["max_entries"] == 4
        finally:
            evalcache.clear()

    def test_clear_resets_counters(self):
        evalcache.clear()
        stats = evalcache.stats()
        assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
        assert stats["laplace_calls"] == 0
        assert stats["laplace_bytes"] == stats["grid_bytes"] == 0
        assert stats["inversion_bytes"] == 0
        assert stats["max_bytes"] == evalcache.MAX_BYTES

    @staticmethod
    def _inversion(i: int, nbytes: int) -> np.ndarray:
        """Store (or hit) an inversion entry of ``nbytes`` for token ``i``."""

        class Tok:
            def cache_token(self):
                return ("bytes", i)

        return evalcache.cached_inversion(
            Tok(), "euler", 8, 0.0, np.array([0.1]), lambda: np.zeros(nbytes // 8)
        )

    @staticmethod
    def _held() -> list:
        return [key[0][1] for key in evalcache._inversions._entries]

    def test_byte_bound_evicts_least_recent_first(self, monkeypatch):
        evalcache.clear()
        monkeypatch.setattr(evalcache, "MAX_BYTES", 1000)
        try:
            for i in range(3):
                self._inversion(i, 320)
            assert self._held() == [0, 1, 2]
            assert evalcache.stats()["inversion_bytes"] == 960
            self._inversion(0, 320)  # a hit: 0 becomes most recent
            self._inversion(3, 200)  # 1160 bytes: evicts 1, the LRU end
            assert self._held() == [2, 0, 3]
            stats = evalcache.stats()
            assert stats["inversion_bytes"] == 840
            assert stats["evictions"] == 1
            assert (stats["hits"], stats["misses"]) == (1, 4)
            self._inversion(4, 600)  # 1440 bytes: evicts 2 then 0
            assert self._held() == [3, 4]
            assert evalcache.stats()["evictions"] == 3
            assert evalcache.stats()["inversion_bytes"] == 800
        finally:
            evalcache.clear()

    def test_oversized_value_returned_not_stored(self, monkeypatch):
        evalcache.clear()
        monkeypatch.setattr(evalcache, "MAX_BYTES", 1000)
        try:
            self._inversion(0, 400)
            big = self._inversion(1, 1008)
            assert big.nbytes == 1008
            stats = evalcache.stats()
            assert self._held() == [0]
            assert stats["inversion_bytes"] == 400
            assert (stats["misses"], stats["evictions"]) == (2, 0)
            self._inversion(1, 1008)  # still not cached: another miss
            assert evalcache.stats()["misses"] == 3
        finally:
            evalcache.clear()

    def test_byte_total_matches_held_charges(self, monkeypatch):
        def charges() -> int:
            return sum(charge for _, charge in evalcache._inversions._entries.values())

        evalcache.clear()
        monkeypatch.setattr(evalcache, "MAX_BYTES", 4096)
        try:
            for i in range(20):
                self._inversion(i, 8 * (1 + i % 7) * 16)
            assert evalcache.stats()["evictions"] > 0
            assert evalcache.stats()["inversion_bytes"] == charges() <= 4096
            monkeypatch.setattr(evalcache, "MAX_ENTRIES", 3)
            evalcache._inversions.trim()
            assert len(self._held()) == 3
            assert evalcache.stats()["inversion_bytes"] == charges()
            # Storing a held key again replaces its charge, not adds one.
            key = next(iter(evalcache._inversions._entries))
            evalcache._inversions.put(key, np.zeros(2))
            assert evalcache.stats()["inversion_bytes"] == charges()
            assert len(self._held()) == 3
            evalcache.clear()
            assert evalcache.stats()["inversion_bytes"] == charges() == 0
        finally:
            evalcache.clear()

    def test_grid_pmf_charged_by_probs(self):
        from repro.distributions import Gamma, grid_of

        evalcache.clear()
        try:
            pmf = grid_of(Gamma(2.0, 100.0), 1e-3, 256)
            assert evalcache.stats()["grid_bytes"] == pmf.probs.nbytes
        finally:
            evalcache.clear()
