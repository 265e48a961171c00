"""Redundant-read experiments: order-statistic model vs. simulation.

The validation loop for docs/REDUNDANCY.md: each
:func:`run_redundancy_scenario` performs a *paired* run from the same
seeds --

* the **strategy episode**: the cluster dispatches reads with the
  requested redundant strategy (``kofn``/``quorum``/``forkjoin``);
* the **control episode**: the identical cluster, trace and seeds under
  plain single-replica dispatch.

Each episode calibrates its own :class:`SystemParameters` from the
metrics it observed (the redundant model deliberately consumes rates
that already include probe traffic -- see the module docstring of
:mod:`repro.model.redundancy`), and is judged against its matching
predictor: :class:`RedundantLatencyModel` for the strategy episode,
:class:`LatencyPercentileModel`'s composition (the ``single`` reduction)
for the control.  The control error is the model *family's* floor on this
workload, so the excess of the strategy error over it attributes what
the order-statistic layer itself adds -- primarily the independence
assumption across concurrent probes.

Both episodes measure their window with
:func:`~repro.experiments.runner.window_episode`: the window is
``[t0, t1)`` with ``t1`` the clock when the window traffic ended (an
open-loop trace stops at its last arrival, a little short of
``t0 + window_duration``), and every rate is over ``t1 - t0``.

At ``fanout=1`` the strategy episode is bit-identical to the control
(the simulator routes through the single-replica path) and the model
reduces exactly, so every column of the comparison collapses -- the
k=1 row of :func:`run_kofn_sweep` doubles as an end-to-end self-check.

``cosmodel redundancy`` runs one scenario and writes the JSON + table
artifact with a provenance manifest.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Mapping, Sequence

import numpy as np

from repro.experiments.runner import CalibrationBundle, calibrate, window_episode
from repro.experiments.scenarios import Scenario, scenario_s1, scenario_s16
from repro.model import RedundantLatencyModel, replica_sets_from_ring
from repro.queueing import UnstableQueueError
from repro.simulator.cluster import Cluster
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = [
    "StrategyObservation",
    "RedundancyRunResult",
    "run_redundancy_scenario",
    "run_kofn_sweep",
    "write_artifact",
]

#: The latency quantiles each episode is compared on.
QUANTILES = (0.50, 0.90, 0.99)


@dataclasses.dataclass(frozen=True)
class StrategyObservation:
    """One episode (strategy or control) with its matching prediction."""

    label: str
    strategy: str
    fanout: int
    n_requests: int
    observed_sla: float
    predicted_sla: float
    observed_quantiles: tuple[float, ...]
    predicted_quantiles: tuple[float, ...]
    probes: int
    aborted: int
    wasted_chunks: int
    cancel_count: int
    mean_cancel_latency: float

    @property
    def abs_error(self) -> float:
        """Model-vs-simulation error on the SLA percentile."""
        return abs(self.predicted_sla - self.observed_sla)

    @property
    def quantile_rel_errors(self) -> tuple[float, ...]:
        """Relative error of each predicted latency quantile."""
        return tuple(
            abs(p - o) / o if o > 0.0 else float("nan")
            for p, o in zip(self.predicted_quantiles, self.observed_quantiles)
        )


@dataclasses.dataclass(frozen=True)
class RedundancyRunResult:
    """Everything one paired redundancy scenario produced."""

    workload: str
    rate: float
    sla: float
    seed: int
    window: tuple[float, float]
    treated: StrategyObservation
    control: StrategyObservation

    @property
    def excess_error(self) -> float:
        """What the order-statistic layer adds on top of the model
        family's own error floor (the control episode's error)."""
        return self.treated.abs_error - self.control.abs_error

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """JSON-ready document (the machine half of the artifact)."""

        def finite(x):
            if isinstance(x, float) and not math.isfinite(x):
                return None
            return x

        def obs_doc(o: StrategyObservation) -> dict:
            doc = {k: finite(v) for k, v in dataclasses.asdict(o).items()}
            doc["observed_quantiles"] = [finite(v) for v in o.observed_quantiles]
            doc["predicted_quantiles"] = [finite(v) for v in o.predicted_quantiles]
            doc["abs_error"] = finite(o.abs_error)
            doc["quantile_rel_errors"] = [finite(v) for v in o.quantile_rel_errors]
            return doc

        return {
            "workload": self.workload,
            "rate": self.rate,
            "sla_seconds": self.sla,
            "seed": self.seed,
            "window": list(self.window),
            "quantiles": list(QUANTILES),
            "treated": obs_doc(self.treated),
            "control": obs_doc(self.control),
            "excess_error": finite(self.excess_error),
        }

    def render(self) -> str:
        """Human-readable comparison table (the other half)."""
        lines = [
            f"redundant reads {self.treated.label!r} on {self.workload}"
            f"  (rate {self.rate:g} req/s, SLA {self.sla * 1e3:g} ms,"
            f" seed {self.seed})",
            "",
            f"  {'episode':12s} {'n':>6s} {'obs':>7s} {'pred':>7s} {'|err|':>7s}"
            + "".join(f" {'p' + format(q * 100, 'g'):>16s}" for q in QUANTILES),
        ]
        lines.append("  " + "-" * (len(lines[-1]) - 2))
        for o in (self.treated, self.control):
            cells = "".join(
                f"  {ob * 1e3:6.2f}/{pr * 1e3:6.2f}ms"
                for ob, pr in zip(o.observed_quantiles, o.predicted_quantiles)
            )
            lines.append(
                f"  {o.label:12s} {o.n_requests:>6d} {o.observed_sla:7.4f}"
                f" {o.predicted_sla:7.4f} {o.abs_error:7.4f}{cells}"
            )
        t = self.treated
        lines.append("")
        lines.append(
            f"  probe economics: {t.probes} probes for {t.n_requests} reads,"
            f" {t.aborted} aborted, {t.wasted_chunks} wasted chunks,"
            f" {t.cancel_count} cancels"
            + (
                f" (mean lag {t.mean_cancel_latency * 1e3:.2f} ms)"
                if t.cancel_count
                else ""
            )
        )
        lines.append(
            f"  error attribution: strategy {t.abs_error:.4f} - control "
            f"{self.control.abs_error:.4f} = excess {self.excess_error:+.4f}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the paired runner
# ----------------------------------------------------------------------


def _run_episode(
    scenario: Scenario,
    catalog,
    rate: float,
    seed: int,
    strategy: str,
    fanout: int,
    *,
    dispatch_policy: str = "random",
    dispatch_d: int = 2,
):
    """One warm-settle-window episode under one dispatch strategy.

    Seeds derive from one root sequence exactly as the sweep engine
    does; only the frontends' dispatch strategy differs between the
    paired episodes, so a ``fanout=1`` strategy episode is bit-identical
    to the control.  The dispatch-policy experiments
    (:mod:`repro.experiments.dispatch`) reuse this harness with
    ``dispatch_policy`` varied instead, against the same ``random``
    control.  Returns ``(cluster, device_metrics, window_table,
    (t0, t1))`` with the device metrics read off the window counters
    before the drain tail.
    """
    root = np.random.SeedSequence(seed)
    cluster_seed, trace_seed = root.spawn(2)
    config = dataclasses.replace(
        scenario.cluster,
        read_strategy=strategy,
        read_fanout=fanout if strategy in ("kofn", "forkjoin") else 1,
        dispatch_policy=dispatch_policy,
        dispatch_d=dispatch_d,
    )
    cluster = Cluster(config, catalog.sizes, seed=cluster_seed)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
    cluster.warm_caches(gen.warmup_accesses(scenario.warm_accesses))
    OpenLoopDriver(cluster).run(gen.constant_rate(rate, scenario.settle_duration))
    episode = window_episode(cluster, gen.constant_rate(rate, scenario.window_duration))
    return cluster, episode.metrics, episode.table, (episode.t0, episode.t1)


def _observe(
    label: str,
    strategy: str,
    fanout: int,
    cluster,
    metrics,
    table,
    sla: float,
    scenario: Scenario,
    calibration: CalibrationBundle,
    disk_queue: str,
) -> StrategyObservation:
    """Build the episode's matching predictor and compare."""
    params = calibration.system_parameters(scenario.cluster, metrics)
    try:
        if strategy == "single" or fanout == 1:
            model = RedundantLatencyModel(params, strategy="single", disk_queue=disk_queue)
        else:
            names = [dev.name for dev in cluster.devices]
            dead = [m.name for m in metrics if m.request_rate <= 0.0]
            rows = replica_sets_from_ring(cluster.ring, names, exclude=dead)
            model = RedundantLatencyModel(
                params, rows, strategy=strategy, fanout=fanout, disk_queue=disk_queue
            )
        predicted_sla = model.sla_percentile(sla)
        predicted_q = tuple(model.latency_quantile(q) for q in QUANTILES)
    except UnstableQueueError:
        predicted_sla = float("nan")
        predicted_q = tuple(float("nan") for _ in QUANTILES)

    latencies = table.response_latency
    observed_sla = float((latencies <= sla).mean()) if len(table) else float("nan")
    observed_q = tuple(
        float(np.percentile(latencies, q * 100.0)) if len(table) else float("nan")
        for q in QUANTILES
    )
    stats = cluster.metrics.redundant_stats()
    return StrategyObservation(
        label=label,
        strategy=strategy,
        fanout=fanout,
        n_requests=len(table),
        observed_sla=observed_sla,
        predicted_sla=predicted_sla,
        observed_quantiles=observed_q,
        predicted_quantiles=predicted_q,
        probes=stats["probes"],
        aborted=stats["aborted"],
        wasted_chunks=stats["wasted_chunks"],
        cancel_count=stats["cancel_count"],
        mean_cancel_latency=stats["mean_cancel_latency"],
    )


def run_redundancy_scenario(
    strategy: str = "kofn",
    fanout: int = 2,
    workload: str = "s1",
    *,
    rate: float | None = None,
    sla: float = 0.100,
    seed: int = 0,
    scale: str = "ci",
    scenario: Scenario | None = None,
    calibration: CalibrationBundle | None = None,
    disk_queue: str = "mm1k",
) -> RedundancyRunResult:
    """Run one redundancy scenario (strategy episode + single-dispatch
    control episode) and compare each against its matching predictor.

    ``scenario``/``calibration`` may be supplied to reuse a scaled-down
    scenario (the goldens do); by default the named workload at
    ``scale`` is used and calibrated on the spot.
    """
    if scenario is None:
        if workload.lower() == "s1":
            scenario = scenario_s1(scale)
        elif workload.lower() == "s16":
            scenario = scenario_s16(scale)
        else:
            raise ValueError(f"unknown workload {workload!r}; use 's1' or 's16'")
    if calibration is None:
        calibration = calibrate(scenario, seed=seed)
    if rate is None:
        rate = float(scenario.rates[len(scenario.rates) // 2])

    catalog = scenario.catalog()
    label = (
        strategy
        if strategy in ("single", "quorum")
        else f"{strategy}@{fanout}"
    )
    t_cluster, t_metrics, t_table, window = _run_episode(
        scenario, catalog, rate, seed, strategy, fanout
    )
    c_cluster, c_metrics, c_table, _ = _run_episode(
        scenario, catalog, rate, seed, "single", 1
    )
    treated = _observe(
        label, strategy, fanout, t_cluster, t_metrics, t_table,
        sla, scenario, calibration, disk_queue,
    )
    control = _observe(
        "single", "single", 1, c_cluster, c_metrics, c_table,
        sla, scenario, calibration, disk_queue,
    )
    return RedundancyRunResult(
        workload=scenario.name,
        rate=float(rate),
        sla=float(sla),
        seed=seed,
        window=window,
        treated=treated,
        control=control,
    )


def run_kofn_sweep(
    *,
    workloads: Sequence[str] = ("s1", "s16"),
    fanouts: Sequence[int] = (1, 2, 3),
    sla: float = 0.100,
    seed: int = 0,
    scale: str = "ci",
    scenarios: Mapping[str, Scenario] | None = None,
    calibrations: Mapping[str, CalibrationBundle] | None = None,
) -> dict[tuple[str, int], RedundancyRunResult]:
    """The k-of-n sweep: speculative reads at each fanout x workload.

    The ``fanout=1`` rows are self-checks (episodes bit-identical,
    predictors exactly equal); the higher fanouts measure how far the
    independence assumption bends under real probe correlation.
    """
    out: dict[tuple[str, int], RedundancyRunResult] = {}
    for workload in workloads:
        scenario = scenarios.get(workload) if scenarios else None
        calibration = calibrations.get(workload) if calibrations else None
        for k in fanouts:
            out[(workload, k)] = run_redundancy_scenario(
                "kofn",
                k,
                workload,
                sla=sla,
                seed=seed,
                scale=scale,
                scenario=scenario,
                calibration=calibration,
            )
    return out


def write_artifact(result: RedundancyRunResult, path: str) -> str:
    """Write the JSON half of the comparison artifact; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(result.to_doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
