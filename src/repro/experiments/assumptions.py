"""Quantifying the paper's modelling assumptions (Section III-A).

The paper scopes its model with five assumptions; two of them gate real
deployments and are directly testable on our substrate because the
simulator implements the excluded mechanisms:

* **Read-heavy workloads** ("the model does not consider WRITE and
  DELETE requests").  :func:`run_write_fraction_study` sweeps the PUT
  fraction and measures how fast the read-only model's accuracy decays:
  replicated durable writes congest the same disks the model believes
  are serving only reads.
* **Normal status** ("the model does not consider the impact of
  timeouts, retries...").  :func:`run_timeout_study` turns on frontend
  timeouts with replica retry and measures the divergence as the
  timeout tightens: retries add load the model never sees, and the
  observed latency distribution reshapes around the timeout.

Both studies output mean absolute errors per SLA so the boundary of the
model's validity is a number, not a caveat.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.reporting import format_percent, render_table
from repro.experiments.runner import calibrate, window_episode
from repro.experiments.scenarios import SLAS, Scenario, scenario_s1
from repro.model import LatencyPercentileModel
from repro.queueing import UnstableQueueError
from repro.simulator.cluster import Cluster
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = [
    "AssumptionStudy",
    "run_write_fraction_study",
    "run_timeout_study",
]


@dataclasses.dataclass(frozen=True)
class AssumptionStudy:
    """Mean |error| of the read-only model per (condition, sla)."""

    name: str
    conditions: tuple[str, ...]
    slas: tuple[float, ...]
    errors: dict[str, dict[float, float]]
    diagnostics: dict[str, float]

    def render(self) -> str:
        headers = ["condition", *(f"{s * 1e3:.0f}ms" for s in self.slas)]
        rows = [
            [c, *(format_percent(self.errors[c][s]) for s in self.slas)]
            for c in self.conditions
        ]
        return render_table(headers, rows, title=f"Assumption study: {self.name}")


def _measure_point(
    scenario: Scenario,
    *,
    rate: float,
    seed: int,
    write_fraction: float = 0.0,
    cluster_overrides: dict | None = None,
) -> tuple[dict[float, float], dict[float, float], float]:
    """One operating point: observed (reads only) vs read-only model.

    Returns (observed per sla, predicted per sla, extra-diagnostic).
    """
    config = scenario.cluster
    if cluster_overrides:
        config = dataclasses.replace(config, **cluster_overrides)
    calibration = calibrate(scenario, disk_objects=1200, parse_requests=60, seed=seed)
    catalog = scenario.catalog()
    cluster = Cluster(config, catalog.sizes, seed=seed)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(seed + 2))
    cluster.warm_caches(gen.warmup_accesses(scenario.warm_accesses // 2))
    OpenLoopDriver(cluster).run(
        gen.constant_rate(rate, scenario.settle_duration, write_fraction=write_fraction)
    )
    episode = window_episode(
        cluster,
        gen.constant_rate(rate, scenario.window_duration, write_fraction=write_fraction),
    )
    table = episode.table.reads()
    observed = {
        sla: float((table.response_latency <= sla).mean()) for sla in scenario.slas
    }
    params = calibration.system_parameters(config, episode.metrics)
    try:
        model = LatencyPercentileModel(params)
        predicted = {sla: model.sla_percentile(sla) for sla in scenario.slas}
    except UnstableQueueError:
        predicted = {sla: float("nan") for sla in scenario.slas}
    diag = float(table.retries.mean()) if len(table) else 0.0
    return observed, predicted, diag


def run_write_fraction_study(
    scenario: Scenario | None = None,
    *,
    rate: float = 70.0,
    fractions=(0.0, 0.05, 0.15, 0.3),
    seed: int = 0,
) -> AssumptionStudy:
    """Sweep the PUT fraction; errors are |predicted - observed| on the
    *read* population (the model only ever claims to predict reads)."""
    scenario = scenario if scenario is not None else scenario_s1()
    errors: dict[str, dict[float, float]] = {}
    diagnostics: dict[str, float] = {}
    conditions = []
    for frac in fractions:
        label = f"{frac * 100:.0f}% writes"
        conditions.append(label)
        obs, pred, _ = _measure_point(
            scenario, rate=rate, seed=seed, write_fraction=frac
        )
        errors[label] = {sla: abs(pred[sla] - obs[sla]) for sla in scenario.slas}
        diagnostics[label] = frac
    return AssumptionStudy(
        name="read-heavy workloads (PUT fraction)",
        conditions=tuple(conditions),
        slas=tuple(scenario.slas),
        errors=errors,
        diagnostics=diagnostics,
    )


def run_timeout_study(
    scenario: Scenario | None = None,
    *,
    rate: float = 150.0,
    timeouts=(None, 0.3, 0.1, 0.05),
    seed: int = 0,
) -> AssumptionStudy:
    """Sweep the frontend timeout at a loaded operating point."""
    scenario = scenario if scenario is not None else scenario_s1()
    errors: dict[str, dict[float, float]] = {}
    diagnostics: dict[str, float] = {}
    conditions = []
    for timeout in timeouts:
        label = "no timeout" if timeout is None else f"timeout {timeout * 1e3:.0f}ms"
        conditions.append(label)
        obs, pred, mean_retries = _measure_point(
            scenario,
            rate=rate,
            seed=seed,
            cluster_overrides={"request_timeout": timeout, "max_retries": 2},
        )
        errors[label] = {sla: abs(pred[sla] - obs[sla]) for sla in scenario.slas}
        diagnostics[label] = mean_retries
    return AssumptionStudy(
        name="normal status (timeouts & retries)",
        conditions=tuple(conditions),
        slas=tuple(scenario.slas),
        errors=errors,
        diagnostics=diagnostics,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run_write_fraction_study().render())
    print()
    study = run_timeout_study()
    print(study.render())
    print("\nmean retries per read:", study.diagnostics)


if __name__ == "__main__":  # pragma: no cover
    main()
