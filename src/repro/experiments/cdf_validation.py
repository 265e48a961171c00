"""Whole-distribution validation: predicted CDF vs observed CDF.

The paper evaluates three SLA points; the model actually predicts the
*entire* response-latency distribution, and nothing stops us from
grading all of it.  This experiment runs one operating point per
scenario, overlays the model's CDF on the observed empirical CDF across
a latency grid, and scores the match with the Kolmogorov--Smirnov
distance plus quantile-level errors -- a sharper instrument than any
finite SLA set, and the natural acceptance test for anyone adapting the
model to a new deployment.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.reporting import render_series
from repro.experiments.runner import calibrate, window_episode
from repro.experiments.scenarios import Scenario, scenario_s1
from repro.model import LatencyPercentileModel
from repro.simulator.cluster import Cluster
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = ["CdfValidation", "run_cdf_validation"]


@dataclasses.dataclass(frozen=True)
class CdfValidation:
    """Observed vs predicted CDFs on a shared latency grid."""

    scenario: str
    rate: float
    grid_ms: np.ndarray
    observed: np.ndarray
    predicted: np.ndarray
    ks_distance: float
    quantile_errors_ms: dict[float, float]  # q -> |pred - obs| in ms

    def render(self) -> str:
        table = render_series(
            "latency_ms",
            list(np.round(self.grid_ms, 1)),
            {
                "observed": list(np.round(self.observed, 4)),
                "predicted": list(np.round(self.predicted, 4)),
            },
            title=(
                f"CDF validation: {self.scenario} @ {self.rate:.0f} req/s "
                f"(KS = {self.ks_distance:.4f})"
            ),
        )
        lines = [
            f"  |q{q * 100:.0f} error| = {err:.2f} ms"
            for q, err in self.quantile_errors_ms.items()
        ]
        return table + "\nQuantile errors:\n" + "\n".join(lines)


def run_cdf_validation(
    scenario: Scenario | None = None,
    *,
    rate: float = 90.0,
    n_grid: int = 25,
    max_ms: float = 250.0,
    quantiles=(0.5, 0.9, 0.95),
    seed: int = 0,
) -> CdfValidation:
    """One operating point: simulate a window, predict the full CDF."""
    scenario = scenario if scenario is not None else scenario_s1()
    calibration = calibrate(scenario, disk_objects=1500, parse_requests=80, seed=seed)
    catalog = scenario.catalog()
    cluster = Cluster(scenario.cluster, catalog.sizes, seed=seed)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(seed + 2))
    cluster.warm_caches(gen.warmup_accesses(scenario.warm_accesses))
    OpenLoopDriver(cluster).run(gen.constant_rate(rate, scenario.settle_duration))
    episode = window_episode(cluster, gen.constant_rate(rate, scenario.window_duration))
    latencies = np.sort(episode.table.response_latency)
    params = calibration.system_parameters(scenario.cluster, episode.metrics)
    model = LatencyPercentileModel(params)

    grid_ms = np.linspace(max_ms / n_grid, max_ms, n_grid)
    grid_s = grid_ms / 1e3
    observed = np.searchsorted(latencies, grid_s, side="right") / latencies.size
    predicted = model.sla_percentiles(grid_s)
    ks = float(np.abs(observed - predicted).max())
    q_errors = {}
    for q in quantiles:
        obs_q = float(np.quantile(latencies, q))
        pred_q = model.latency_quantile(q)
        q_errors[q] = abs(pred_q - obs_q) * 1e3
    return CdfValidation(
        scenario=scenario.name,
        rate=rate,
        grid_ms=grid_ms,
        observed=np.asarray(observed, dtype=float),
        predicted=np.asarray(predicted, dtype=float),
        ks_distance=ks,
        quantile_errors_ms=q_errors,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run_cdf_validation().render())


if __name__ == "__main__":  # pragma: no cover
    main()
