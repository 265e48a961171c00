"""Parallel sweep execution: fan rate points over a process pool.

The serial sweep walked one warm cluster through every rate point, so
points could never run concurrently.  This module restructures a sweep
into independent *point tasks*:

* the parent calibrates, builds the hash ring and warms the caches
  **once** per scenario, then snapshots the warm state
  (:class:`SweepContext`);
* each rate point becomes a :class:`PointTask` carrying only its rate
  and two spawned :class:`numpy.random.SeedSequence` children (cluster
  streams, trace stream);
* :func:`run_point` is a *pure function* of ``(context, task)``: it
  rebuilds a cluster around the shared ring + warm snapshot, settles,
  measures one window and returns the finished
  :class:`~repro.experiments.runner.SweepPoint`.

:func:`window_episode` is the measured window itself -- reset the
window counters, replay the window traffic, read the online metrics,
drain, cut the request table -- shared by every experiment that
simulates a window and then predicts it (the sweep, the fault, the
redundancy and dispatch episodes, the assumption studies and the CDF
validation).  :mod:`repro.experiments.runner` re-exports it.

Because every task's randomness is derived from seeds alone (never from
execution order, pool scheduling or sibling points), ``jobs=4`` produces
**bit-identical** results to ``jobs=1`` -- the determinism test asserts
exact equality, NaNs included.  Tasks from *different* scenarios can
interleave in one pool (see :func:`execute`), which is how the tables
and figures drivers overlap the S1 and S16 sweeps.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
from typing import Mapping, Sequence

import numpy as np

from repro.calibration import collect_device_metrics
from repro.model import build_model
from repro.queueing import UnstableQueueError
from repro.simulator.cluster import Cluster
from repro.simulator.ring import HashRing
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.trace import Trace
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = [
    "SweepContext",
    "PointTask",
    "run_point",
    "measure_point",
    "WindowEpisode",
    "window_episode",
    "execute",
    "pool_map",
    "resolve_jobs",
]


@dataclasses.dataclass(frozen=True, eq=False)
class SweepContext:
    """Everything shared by all rate points of one scenario sweep.

    Shipped to each worker process once (pool initializer), not per
    task: the cache snapshot of a paper-scale scenario is around a
    megabyte pickled, the tasks a few hundred bytes.
    """

    scenario: object  # repro.experiments.scenarios.Scenario
    calibration: object  # repro.experiments.runner.CalibrationBundle
    models: tuple[str, ...]
    rescale_service: bool
    ring_assignment: np.ndarray
    cache_snapshot: tuple
    #: JSONL event-log path for per-point lifecycle events (None = off).
    #: A path, not a handle: each worker process opens its own O_APPEND
    #: descriptor, so events from a pool interleave line-atomically.
    events_path: str | None = None
    #: Run each point inside a DiagnosticsSession and attach its summary
    #: to the SweepPoint.  Pure observer -- results stay bit-identical.
    diagnose: bool = False


@dataclasses.dataclass(frozen=True, eq=False)
class PointTask:
    """One rate point, fully described by seeds (order-independent)."""

    context_key: str
    index: int
    rate: float
    cluster_seed: np.random.SeedSequence
    trace_seed: np.random.SeedSequence


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None`` -> serial, ``0`` -> all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# the per-point unit of work
# ----------------------------------------------------------------------

#: Per-process catalog memo.  Catalogs are pure functions of these
#: scenario fields (see ``Scenario.catalog``), so keying on them -- not
#: the scenario name -- makes the memo safe even when two contexts share
#: a name with different parameters.
_CATALOGS: dict[tuple, object] = {}


def _catalog_for(scenario) -> object:
    key = (
        scenario.n_objects,
        scenario.mean_object_size,
        scenario.size_sigma,
        scenario.zipf_s,
        scenario.catalog_seed,
    )
    catalog = _CATALOGS.get(key)
    if catalog is None:
        catalog = scenario.catalog()
        _CATALOGS[key] = catalog
    return catalog


def run_point(ctx: SweepContext, task: PointTask):
    """Measure and predict one rate point; ``None`` for an empty window.

    Pure in ``(ctx, task)``: all randomness flows from the task's two
    seed sequences, so the result does not depend on which process runs
    the task or in what order.

    The cyclic garbage collector is paused for the duration of a point.
    A cluster is a dense web of reference cycles (bound-method dispatch
    tables, processes pointing at devices pointing back), so generation
    scans triggered by event-loop allocation churn repeatedly traverse
    the whole object graph for no reclaimable garbage -- several
    percent of a sweep's wall time.  On exit, collection resumes and a
    young-generation collection frees the point's cluster: nothing
    allocates a container before the next point pauses the collector
    again, so no automatic collection would ever reclaim it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if ctx.events_path is None and not ctx.diagnose:
            return _run_point(ctx, task)
        return _run_point_instrumented(ctx, task)
    finally:
        if was_enabled:
            gc.enable()
            gc.collect(0)


def _run_point_instrumented(ctx: SweepContext, task: PointTask):
    """The observed variant of :func:`_run_point`: events + diagnostics.

    Kept out of the plain path so an uninstrumented sweep pays nothing.
    Events carry wall-clock data and go to a sidecar log; the
    diagnostics session only *reads* the inversions the point performs
    (its re-inversions bypass the eval cache).  Neither touches a random
    stream, so the returned numbers equal the plain path's exactly.
    """
    import time

    log = None
    if ctx.events_path is not None:
        from repro.obs.events import EventLog

        log = EventLog(ctx.events_path)
        log.emit(
            "point_started",
            scenario=task.context_key,
            index=task.index,
            rate=task.rate,
        )
    session = None
    if ctx.diagnose:
        from repro.obs.diagnostics import DiagnosticsSession

        session = DiagnosticsSession()
    start = time.perf_counter()
    point = failed = object()  # sentinel: distinguishes "raised" from None
    try:
        if session is not None:
            with session:
                point = _run_point(ctx, task)
            if point is not None:
                point = dataclasses.replace(point, diagnostics=session.summary())
        else:
            point = _run_point(ctx, task)
    finally:
        if log is not None:
            fields = {
                "scenario": task.context_key,
                "index": task.index,
                "rate": task.rate,
                "wall_s": time.perf_counter() - start,
            }
            if session is not None:
                fields["diagnostics"] = session.summary()
            if point is not failed and point is not None:
                fields["n_requests"] = point.n_requests
            log.emit("point_finished", **fields)
            log.close()
    return point


@dataclasses.dataclass(frozen=True, eq=False)
class WindowEpisode:
    """One measured window ``[t0, t1)`` of a settled cluster.

    ``t1`` is the clock when the window traffic ended (an open-loop
    trace ends at its last arrival), so every rate is over ``t1 - t0``.
    ``metrics`` are the devices' online metrics (Section IV-B) read off
    the window counters when the *first* traffic segment ended: the
    whole window for a one-segment episode, the healthy prefix for a
    fault episode.  ``table`` holds the requests that arrived in
    ``[t0, t1)``.
    """

    t0: float
    t1: float
    metrics: list  # list[DeviceOnlineMetrics]
    table: object  # repro.simulator.metrics.RequestTable


def window_episode(cluster: Cluster, *segments: Trace) -> WindowEpisode:
    """Measure one window on a settled cluster.

    Resets the window counters, replays ``segments`` back to back on an
    open-loop driver, reads the online metrics after the first one,
    then drains 5 s so every in-window request completes.  Warm-up,
    settling and seeding stay with the caller; nothing here draws a
    random number.
    """
    cluster.reset_window_counters()
    driver = OpenLoopDriver(cluster)
    t0 = cluster.sim.now
    metrics = None
    for trace in segments:
        driver.run(trace)
        if metrics is None:
            metrics = collect_device_metrics(cluster.devices, cluster.sim.now - t0)
    t1 = cluster.sim.now
    cluster.run_until(t1 + 5.0)
    return WindowEpisode(t0, t1, metrics, cluster.metrics.requests().window(t0, t1))


def measure_point(ctx: SweepContext, task: PointTask):
    """Simulate one rate point's window and fit the model inputs.

    The measurement half of :func:`run_point`: settle, measure a window,
    collect the online metrics and return ``(table, observed, stages,
    params)`` -- ``params`` the fitted
    :class:`~repro.model.SystemParameters` -- or four ``None``s when the
    window recorded no requests.  Shared by the sweep itself and by
    ``cosmodel inspect``, which wants the fitted parameters (to build
    and introspect the model) without the prediction loop.
    """
    scenario = ctx.scenario
    catalog = _catalog_for(scenario)
    cluster = Cluster(
        scenario.cluster,
        catalog.sizes,
        seed=task.cluster_seed,
        record_disk_samples=ctx.rescale_service,
        ring=HashRing.from_assignment(
            ctx.ring_assignment, n_devices=scenario.cluster.n_devices
        ),
    )
    cluster.restore_cache_state(ctx.cache_snapshot)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(task.trace_seed))
    OpenLoopDriver(cluster).run(gen.constant_rate(task.rate, scenario.settle_duration))
    disk_mark = cluster.metrics.disk_mark() if ctx.rescale_service else None
    episode = window_episode(
        cluster, gen.constant_rate(task.rate, scenario.window_duration)
    )
    table = episode.table
    if len(table) == 0:
        return None, None, None, None
    observed = {
        sla: float((table.response_latency <= sla).mean()) for sla in scenario.slas
    }
    # Observed per-stage means, same Equation-2 decomposition the model
    # predicts.  The stages do not *quite* sum to the response latency:
    # the accepted -> backend-enqueue dispatch gap sits between W_a and
    # S_be; the attribution report carries it as an explicit residual.
    observed_stages = {
        "frontend_sojourn": float(table.frontend_sojourn.mean()),
        "accept_wait": float(table.accept_wait.mean()),
        "backend_response": float(table.backend_response.mean()),
        "response": float(table.response_latency.mean()),
    }

    aggregate_mean = None
    if ctx.rescale_service:
        since = cluster.metrics.disk_samples_since(disk_mark)
        all_samples = (
            np.concatenate([v for v in since.values() if v.size], axis=None)
            if any(v.size for v in since.values())
            else np.empty(0)
        )
        if all_samples.size:
            aggregate_mean = float(all_samples.mean())

    params = ctx.calibration.system_parameters(
        scenario.cluster, episode.metrics, aggregate_disk_mean=aggregate_mean
    )
    return table, observed, observed_stages, params


def _run_point(ctx: SweepContext, task: PointTask):
    from repro.experiments.runner import SweepPoint

    scenario = ctx.scenario
    table, observed, observed_stages, params = measure_point(ctx, task)
    if table is None:
        return None

    rate = task.rate
    predicted: dict[str, dict[float, float]] = {}
    max_util = float("nan")
    model_stages = None
    for family in ctx.models:
        try:
            model = build_model(family, params)
        except UnstableQueueError:
            predicted[family] = {sla: float("nan") for sla in scenario.slas}
            continue
        predicted[family] = {sla: model.sla_percentile(sla) for sla in scenario.slas}
        if family == "ours":
            max_util = max(model.utilizations().values())
            model_stages = model.stage_means()
    return SweepPoint(
        rate=float(rate),
        n_requests=len(table),
        observed=observed,
        predicted=predicted,
        max_utilization=max_util,
        observed_stages=observed_stages,
        model_stages=model_stages,
    )


# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------

#: The payload :func:`pool_map` ships to each worker once, at start-up.
_WORKER_PAYLOAD = None


def _init_worker(payload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


def _call_with_payload(fn, item):
    return fn(_WORKER_PAYLOAD, item)


def pool_map(fn, payload, items: Sequence, workers: int) -> list:
    """``[fn(payload, item) for item in items]``, over a process pool.

    ``fn`` must be a module-level function.  ``payload`` is pickled once
    per worker (the pool initializer), not once per item.  ``workers <=
    1`` runs inline.  When a process pool cannot be created --
    sandboxed environments, missing semaphores -- or breaks, execution
    degrades to the inline path rather than failing; callers whose
    results are pure in ``(payload, item)`` get the same list either way.
    """
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                try:
                    return list(
                        pool.map(functools.partial(_call_with_payload, fn), items)
                    )
                except BrokenProcessPool:
                    pass  # fall through to the inline path below
        except (ImportError, OSError, PermissionError):
            pass
    return [fn(payload, item) for item in items]


def _run_task(contexts: Mapping[str, SweepContext], task: PointTask):
    return run_point(contexts[task.context_key], task)


def execute(
    contexts: Mapping[str, SweepContext],
    tasks: Sequence[PointTask],
    jobs: int | None = None,
) -> list:
    """Run every task, returning results in task order.

    ``jobs <= 1`` (or a single task) runs inline.  Fan-out is capped at
    the machine's core count: each worker is CPU-bound and carries its
    own per-process caches, so oversubscribing cores only adds scheduler
    contention and duplicated cache warmup (measured ~2x slower than
    serial on a single-core host).  A pool that cannot be created
    degrades to the serial path (:func:`pool_map`); the results are
    identical either way.
    """
    workers = min(resolve_jobs(jobs), len(tasks), os.cpu_count() or 1)
    return pool_map(_run_task, dict(contexts), tasks, workers)
