"""Per-layer spans, recorded from outside the program.

A traced repetition wraps the public entry points of each layer --
calibration, cache warm-up and restore, the open-loop driver, metric
collection, model construction and SLA evaluation, Laplace inversion,
lattice composition -- in timing wrappers installed by this file, and
switches on the simulator's own per-handler profiler in every cluster
the repetition builds.  Nothing inside ``src`` changes: the wrappers
call the original functions with the original arguments, so a traced
repetition's outputs equal an untraced one's bit for bit (the benchmark
checks this).  The trace covers the whole repetition -- set-up, the
timed body and the output checks -- so a layer used only while setting
up (calibration's closed-loop cluster) or checking (the fleet's model
cross-check) is still measured.

Spans are kept as ``(calls, seconds)`` totals per name.  A wrapper only
times the outermost call of its name, so recursive entry points
(``grid_of``) are not counted twice.  An entry point that no longer
exists is skipped and listed in :attr:`LayerTrace.missing`; its metrics
then read 0 rather than failing the run.
"""

from __future__ import annotations

import importlib
import time

#: Per-layer metric names and units, in report order.  Shared with
#: ``BENCHMARK.json`` (the tests assert the two agree).  Every metric in
#: seconds is non-zero on every workload; a layer that only some
#: workloads use is reported as its share of the traced repetition's
#: wall time, which reads 0 where the layer is not used.
PER_LAYER = (
    ("core.events", "count"),
    ("core.handler_s", "s"),
    ("core.batch_fraction", "ratio"),
    ("backend.connect_us", "us"),
    ("backend.after_parse_us", "us"),
    ("backend.finish_accept_us", "us"),
    ("backend.deliver_completion_us", "us"),
    ("frontend.after_parse_us", "us"),
    ("frontend.arrival_share", "ratio"),
    ("disk.ops_per_req", "count"),
    ("disk.complete_us", "us"),
    ("cache.warm_share", "ratio"),
    ("cache.restore_share", "ratio"),
    ("sweep.episode_share", "ratio"),
    ("calibration.calibrate_s", "s"),
    ("calibration.collect_share", "ratio"),
    ("model.build_ms", "ms"),
    ("model.sla_ms", "ms"),
    ("laplace.invert_calls", "count"),
    ("laplace.invert_s", "s"),
    ("laplace.repair_warnings", "count"),
    ("evalcache.hit_ratio", "ratio"),
    ("evalcache.evictions", "count"),
    ("evalcache.laplace_calls", "count"),
    ("grid.grid_of_share", "ratio"),
    ("obs.trace_overhead", "ratio"),
)

#: Kernel-profiler handler rows reported per event, in microseconds.
HANDLER_ROWS = {
    "backend.connect_us": "StorageDevice.connect",
    "backend.after_parse_us": "StorageProcess._after_parse",
    "backend.finish_accept_us": "StorageProcess._finish_accept",
    "backend.deliver_completion_us": "StorageDevice.deliver_completion",
    "frontend.arrival_us": "Cluster._arrival",
    "frontend.after_parse_us": "FrontendProcess._after_parse",
    "disk.complete_us": "Disk._complete",
}

#: ``(span name, module, attribute path)`` of every wrapped entry point.
#: A dotted attribute is a method on a class of that module.  A function
#: is wrapped in each module that imported it by name.
SPANS = (
    ("cache.warm", "repro.simulator.cluster", "Cluster.warm_caches"),
    ("cache.restore", "repro.simulator.cluster", "Cluster.restore_cache_state"),
    ("sweep.episode", "repro.workload.ssbench", "OpenLoopDriver.run"),
    ("calibration.calibrate", "repro.experiments", "calibrate"),
    ("calibration.calibrate", "repro.experiments.runner", "calibrate"),
    ("calibration.collect", "repro.experiments.parallel", "collect_device_metrics"),
    ("model.build", "repro.model.system", "LatencyPercentileModel.__init__"),
    ("model.sla", "repro.model.system", "LatencyPercentileModel.sla_percentile"),
    ("laplace.invert", "repro.laplace", "invert_cdf"),
    ("grid.grid_of", "repro.model.frontend", "grid_of"),
    ("grid.grid_of", "repro.model.redundancy", "grid_of"),
    ("grid.grid_of", "repro.queueing.mg1k", "grid_of"),
)

#: Modules that build clusters by name: each cluster they build is
#: profiled from construction on.  The fleet profiles its own clusters
#: (``TelemetryConfig(profile=True)``).
CLUSTER_BUILDERS = ("repro.experiments.parallel", "repro.calibration.parse_benchmark")
#: Calls after which the clusters built so far are finished: their
#: profiles are read then and the clusters released.
CLUSTER_FINISHERS = (
    ("repro.experiments.parallel", "measure_point"),
    ("repro.experiments.runner", "benchmark_parse"),
)


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for a dotted path, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class LayerTrace:
    """Timing wrappers around layer entry points; a context manager."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self._active: dict[str, list] = {}
        self._undo: list[tuple] = []
        self._live: list = []
        self.profile_rows: list[dict] = []
        self.missing: list[str] = []

    def __enter__(self) -> "LayerTrace":
        for name, module, path in SPANS:
            self.spans.setdefault(name, [0, 0.0])
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            self._wrap(*target, name)
        self._profile_clusters()
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._flush()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        cell = self.spans[name]
        active = self._active.setdefault(name, [False])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if active[0]:
                return original(*args, **kwargs)
            active[0] = True
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0
                active[0] = False

        self._patch(owner, attr, timed)

    def _flush(self) -> None:
        while self._live:
            self.profile_rows.extend(self._live.pop().sim.profile_snapshot())

    def _profile_clusters(self) -> None:
        live = self._live
        for module in CLUSTER_BUILDERS:
            target = _resolve(module, "Cluster")
            if target is None:
                self.missing.append(f"{module}.Cluster")
                continue

            class ProfiledCluster(target[0].Cluster):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    self.sim.enable_profile()
                    live.append(self)

            self._patch(target[0], "Cluster", ProfiledCluster)
        for module, path in CLUSTER_FINISHERS:
            target = _resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            original = getattr(*target)

            def finished(*args, _original=original, **kwargs):
                try:
                    return _original(*args, **kwargs)
                finally:
                    self._flush()

            self._patch(*target, finished)

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def mean_ms(self, name: str) -> float:
        calls, secs = self.spans.get(name, (0, 0.0))
        return 1e3 * secs / calls if calls else 0.0


def handler_metrics(rows, total_s: float) -> dict:
    """Kernel-profiler rows -> the ``core``/``backend``/``frontend``/``disk``
    metrics (rows with the same handler name are summed).  ``total_s``
    is the base of ``frontend.arrival_share``; ``frontend.arrival_us``
    is returned too, for the printed report."""
    by_name: dict[str, list] = {}
    for row in rows:
        acc = by_name.setdefault(row["name"], [0, 0, 0.0])
        acc[0] += row["events"]
        acc[1] += row.get("batch_events", 0)
        acc[2] += row["total_s"]
    arrivals = by_name.get("Cluster._arrival", [0, 0, 0.0])
    out = {
        "core.events": sum(a[0] for a in by_name.values()),
        "core.handler_s": sum(a[2] for a in by_name.values()),
        "core.batch_fraction": arrivals[1] / arrivals[0] if arrivals[0] else 0.0,
        "disk.ops_per_req": (
            by_name.get("Disk._complete", [0])[0] / arrivals[0] if arrivals[0] else 0.0
        ),
        "frontend.arrival_share": arrivals[2] / total_s,
    }
    for metric, handler in HANDLER_ROWS.items():
        n, _, secs = by_name.get(handler, [0, 0, 0.0])
        out[metric] = 1e6 * secs / n if n else 0.0
    return out


def layer_metrics(trace: LayerTrace, rows, cache_before: dict, cache_after: dict,
                  repair_warnings: int, total_s: float) -> dict:
    """Every per-layer metric except ``obs.trace_overhead``, plus each
    span's calls and seconds for the printed report.

    ``total_s`` is the traced repetition's wall time, the base of the
    ``*_share`` metrics.
    """
    out = handler_metrics(rows, total_s)
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    out.update(
        {
            "cache.warm_share": trace.seconds("cache.warm") / total_s,
            "cache.restore_share": trace.seconds("cache.restore") / total_s,
            "sweep.episode_share": trace.seconds("sweep.episode") / total_s,
            "calibration.calibrate_s": trace.seconds("calibration.calibrate"),
            "calibration.collect_share": trace.seconds("calibration.collect") / total_s,
            "model.build_ms": trace.mean_ms("model.build"),
            "model.sla_ms": trace.mean_ms("model.sla"),
            "laplace.invert_calls": trace.spans["laplace.invert"][0],
            "laplace.invert_s": trace.seconds("laplace.invert"),
            "laplace.repair_warnings": repair_warnings,
            "evalcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "evalcache.evictions": cache_after["evictions"] - cache_before["evictions"],
            "evalcache.laplace_calls": (
                cache_after["laplace_calls"] - cache_before["laplace_calls"]
            ),
            "grid.grid_of_share": trace.seconds("grid.grid_of") / total_s,
        }
    )
    for name, (calls, secs) in trace.spans.items():
        out[f"span.{name}.calls"] = calls
        out[f"span.{name}.s"] = secs
    out["trace.missing_entry_points"] = len(trace.missing)
    return out
