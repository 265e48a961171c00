"""Sweep runner: simulate, calibrate, predict, compare (Section V-B).

The measurement loop mirrors the paper's: the workload steps through
arrival rates; at each step the system settles, then a measurement
window records (a) the observed percentile of requests meeting each SLA
and (b) the online metrics (per-device rates, chunk rates, miss ratios).
Device performance properties (fitted disk distributions, parse
distributions, service-time proportions) come from the Section IV
benchmarks, run once per scenario.  Every model family then predicts
each window from *the same inputs the paper's deployment would have*,
and errors are the differences between predicted and observed
percentiles.

Rate points whose model composition is unstable (utilisation >= 1) are
recorded with NaN predictions -- the analogue of the paper excluding
timeout-affected points from analysis.

Execution is delegated to :mod:`repro.experiments.parallel`: every rate
point is an independent task seeded from one root ``SeedSequence``, the
warm cache state is computed once per scenario and shared, and ``jobs``
fans the tasks over a process pool.  ``jobs=1`` (the default) runs the
same tasks inline and produces bit-identical results.

Every experiment that simulates a window and then predicts it measures
the window with :func:`window_episode` and fits the model's inputs with
:meth:`CalibrationBundle.system_parameters`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.calibration import (
    benchmark_disk,
    benchmark_parse,
    device_parameters_from_metrics,
)
from repro.experiments.parallel import (
    PointTask,
    SweepContext,
    execute,
    window_episode,
)
from repro.experiments.scenarios import Scenario
from repro.model import FrontendParameters, SystemParameters
from repro.simulator.cluster import Cluster
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = [
    "SweepPoint",
    "SweepResult",
    "CalibrationBundle",
    "calibrate",
    "window_episode",
    "run_sweep",
    "run_sweeps",
]

DEFAULT_MODELS = ("ours", "odopr", "nowta")


@dataclasses.dataclass(frozen=True)
class CalibrationBundle:
    """Once-per-scenario device performance properties (Section IV-A)."""

    disk_benchmark: object
    parse_benchmark: object

    @property
    def profile(self):
        return self.disk_benchmark.latency_profile()

    @property
    def proportions(self):
        return self.disk_benchmark.proportions()

    def system_parameters(
        self, config, metrics, *, aggregate_disk_mean: float | None = None
    ) -> SystemParameters:
        """Fit the model's inputs from one window's online metrics.

        ``config`` is the simulated :class:`ClusterConfig` (frontend and
        backend pool sizes); devices that served no requests are left
        out.  ``aggregate_disk_mean``, the window's mean disk service
        time, rescales the benchmarked profile through the Section IV-B
        decomposition; by default the profile is used as benchmarked.
        """
        profile = self.profile
        proportions = self.proportions if aggregate_disk_mean is not None else None
        parse = self.parse_benchmark
        return SystemParameters(
            FrontendParameters(config.n_frontend_processes, parse.frontend),
            tuple(
                device_parameters_from_metrics(
                    m,
                    profile,
                    parse.backend,
                    config.processes_per_device,
                    aggregate_disk_mean=aggregate_disk_mean,
                    proportions=proportions,
                )
                for m in metrics
                if m.request_rate > 0.0
            ),
        )


def calibrate(
    scenario: Scenario,
    *,
    disk_objects: int = 2000,
    parse_requests: int = 150,
    seed: int = 0,
) -> CalibrationBundle:
    """Run the Section IV-A benchmarks for a scenario."""
    catalog = scenario.catalog()
    disk = benchmark_disk(
        scenario.cluster.hdd,
        catalog.sizes,
        chunk_bytes=scenario.cluster.chunk_bytes,
        n_objects=disk_objects,
        seed=seed,
    )
    parse = benchmark_parse(
        scenario.cluster, catalog.sizes, n_requests=parse_requests, seed=seed + 1
    )
    return CalibrationBundle(disk_benchmark=disk, parse_benchmark=parse)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One rate step of the sweep.

    ``observed_stages`` / ``model_stages`` carry the per-stage mean
    latencies (``frontend_sojourn`` / ``accept_wait`` /
    ``backend_response`` plus totals) that the error-attribution report
    joins; they are deterministic functions of the window and the model
    composition, so recording them never perturbs bit-identity.
    ``diagnostics`` holds a
    :meth:`~repro.obs.diagnostics.DiagnosticsSession.summary` dict when
    the sweep ran with ``diagnose=True`` (``None`` otherwise) -- it is
    telemetry *about* the numbers, never an input to them.
    """

    rate: float
    n_requests: int
    observed: dict[float, float]  # sla -> observed percentile
    predicted: dict[str, dict[float, float]]  # model -> sla -> percentile
    max_utilization: float
    observed_stages: dict[str, float] | None = None
    model_stages: dict[str, float] | None = None
    diagnostics: dict | None = None

    def error(self, model: str, sla: float) -> float:
        """Signed prediction error (predicted - observed)."""
        return self.predicted[model][sla] - self.observed[sla]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All points of one scenario sweep."""

    scenario: str
    slas: tuple[float, ...]
    models: tuple[str, ...]
    points: tuple[SweepPoint, ...]

    @property
    def rates(self) -> np.ndarray:
        return np.asarray([p.rate for p in self.points])

    def observed_series(self, sla: float) -> np.ndarray:
        return np.asarray([p.observed[sla] for p in self.points])

    def predicted_series(self, model: str, sla: float) -> np.ndarray:
        return np.asarray([p.predicted[model][sla] for p in self.points])

    def errors(self, model: str, sla: float) -> np.ndarray:
        """Signed errors over the sweep; NaN where the model was unstable."""
        return self.predicted_series(model, sla) - self.observed_series(sla)

    def abs_error_stats(self, model: str, sla: float) -> tuple[float, float, float]:
        """``(best, worst, mean)`` absolute errors, Table I style."""
        errs = np.abs(self.errors(model, sla))
        errs = errs[~np.isnan(errs)]
        if errs.size == 0:
            return float("nan"), float("nan"), float("nan")
        return float(errs.min()), float(errs.max()), float(errs.mean())

    def mean_abs_error(self, model: str, sla: float) -> float:
        return self.abs_error_stats(model, sla)[2]


def _prepare_context(
    scenario: Scenario,
    *,
    models: Sequence[str],
    calibration: CalibrationBundle | None,
    seed: int,
    rescale_service: bool,
    events_path: str | None = None,
    diagnose: bool = False,
) -> SweepContext:
    """Calibrate, build the ring and warm the caches once per scenario."""
    if calibration is None:
        calibration = calibrate(scenario, seed=seed)
    catalog = scenario.catalog()
    warm_cluster = Cluster(scenario.cluster, catalog.sizes, seed=seed)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(seed + 100))
    warm_cluster.warm_caches(gen.warmup_accesses(scenario.warm_accesses))
    return SweepContext(
        scenario=scenario,
        calibration=calibration,
        models=tuple(models),
        rescale_service=rescale_service,
        ring_assignment=warm_cluster.ring.assignment,
        cache_snapshot=warm_cluster.cache_state(),
        events_path=events_path,
        diagnose=diagnose,
    )


def _point_tasks(
    key: str, scenario: Scenario, sweep_rates: tuple[float, ...], seed: int
) -> list[PointTask]:
    """Derive per-point seeds from one root sequence.

    Each rate point spawns its own ``SeedSequence`` child by *index*, so
    a point's randomness is identical whether points run serially, in a
    pool, or interleaved with another scenario's tasks.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(sweep_rates))
    tasks = []
    for i, rate in enumerate(sweep_rates):
        cluster_seed, trace_seed = children[i].spawn(2)
        tasks.append(
            PointTask(
                context_key=key,
                index=i,
                rate=float(rate),
                cluster_seed=cluster_seed,
                trace_seed=trace_seed,
            )
        )
    return tasks


def _assemble(
    scenario: Scenario, models: Sequence[str], results: Iterable[SweepPoint | None]
) -> SweepResult:
    return SweepResult(
        scenario=scenario.name,
        slas=tuple(scenario.slas),
        models=tuple(models),
        points=tuple(p for p in results if p is not None),
    )


def run_sweep(
    scenario: Scenario,
    *,
    models: Sequence[str] = DEFAULT_MODELS,
    calibration: CalibrationBundle | None = None,
    seed: int = 0,
    rates: Iterable[float] | None = None,
    rescale_service: bool = False,
    jobs: int | None = None,
    events: str | None = None,
    diagnose: bool = False,
) -> SweepResult:
    """Execute the full sweep for ``scenario``.

    ``rescale_service=True`` additionally applies the Section IV-B
    aggregate-service-time decomposition per window (by default the
    benchmark-time distributions are used directly; the testbed disk
    does not drift, so both settings agree -- the knob exists for the
    calibration tests and the ablation bench).

    ``jobs`` fans rate points over a process pool (``None``/``1`` =
    serial, ``0`` = all cores).  Results are bit-identical for any
    ``jobs`` value: every point's randomness derives from spawned
    ``SeedSequence`` children, never from execution order.

    ``events`` names a JSONL event-log path: per-point lifecycle events
    are appended there as the sweep runs (``cosmodel watch`` tails it).
    ``diagnose=True`` runs each point inside a
    :class:`~repro.obs.diagnostics.DiagnosticsSession` and attaches its
    summary to the point (and its events).  Both are pure observers:
    results are bit-identical with them on or off.
    """
    ctx = _prepare_context(
        scenario,
        models=models,
        calibration=calibration,
        seed=seed,
        rescale_service=rescale_service,
        events_path=events,
        diagnose=diagnose,
    )
    sweep_rates = tuple(rates) if rates is not None else scenario.rates
    tasks = _point_tasks(scenario.name, scenario, sweep_rates, seed)
    log = _sweep_log(events, {scenario.name: len(tasks)}, tasks)
    results = execute({scenario.name: ctx}, tasks, jobs)
    if log is not None:
        log.emit(
            "sweep_finished",
            scenario=scenario.name,
            n_finished=sum(r is not None for r in results),
        )
        log.close()
    return _assemble(scenario, models, results)


def run_sweeps(
    scenarios: Mapping[str, Scenario],
    *,
    models: Sequence[str] = DEFAULT_MODELS,
    calibrations: Mapping[str, CalibrationBundle] | None = None,
    seed: int = 0,
    rescale_service: bool = False,
    jobs: int | None = None,
    events: str | None = None,
    diagnose: bool = False,
) -> dict[str, SweepResult]:
    """Run several scenario sweeps with all points in ONE worker pool.

    The tables/figures drivers run S1 and S16 back to back; pooling the
    two task lists keeps every worker busy through the tail of each
    scenario.  Per-scenario results equal what :func:`run_sweep` would
    return for the same seed (point seeds depend only on the scenario's
    rate index, not on pooling).  ``events`` / ``diagnose`` behave as in
    :func:`run_sweep`, with all scenarios sharing one event log.
    """
    contexts = {
        key: _prepare_context(
            scenario,
            models=models,
            calibration=calibrations.get(key) if calibrations else None,
            seed=seed,
            rescale_service=rescale_service,
            events_path=events,
            diagnose=diagnose,
        )
        for key, scenario in scenarios.items()
    }
    tasks: list[PointTask] = []
    for key, scenario in scenarios.items():
        tasks.extend(_point_tasks(key, scenario, tuple(scenario.rates), seed))
    log = _sweep_log(
        events,
        {key: sum(t.context_key == key for t in tasks) for key in scenarios},
        tasks,
    )
    results = execute(contexts, tasks, jobs)
    by_key: dict[str, list[SweepPoint | None]] = {key: [] for key in scenarios}
    for task, result in zip(tasks, results):
        by_key[task.context_key].append(result)
    if log is not None:
        for key in scenarios:
            log.emit(
                "sweep_finished",
                scenario=key,
                n_finished=sum(r is not None for r in by_key[key]),
            )
        log.close()
    return {
        key: _assemble(scenario, models, by_key[key])
        for key, scenario in scenarios.items()
    }


def _sweep_log(events: str | None, n_points: Mapping[str, int], tasks):
    """Open the event log and emit the queued-phase events (or ``None``)."""
    if events is None:
        return None
    from repro.obs.events import EventLog

    log = EventLog(events)
    for key, n in n_points.items():
        log.emit("sweep_started", scenario=key, n_points=int(n))
    for task in tasks:
        log.emit(
            "point_queued",
            scenario=task.context_key,
            index=task.index,
            rate=task.rate,
        )
    return log
