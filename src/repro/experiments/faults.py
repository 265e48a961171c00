"""Fault-injection experiments: degraded-mode model vs. simulation.

An experiment the paper never ran: inject one fault into a settled,
warmed cluster mid-window and compare the observed per-phase SLA
percentiles against two predictors --

* the **healthy model** (:class:`~repro.model.LatencyPercentileModel`),
  which assumes "normal status" and therefore cannot see the fault;
* the **degraded model** (:class:`~repro.model.DegradedLatencyModel`),
  which mixes per-device-class CDFs over the fault window.

Each :func:`run_fault_scenario` performs a *paired* run: the fault
episode and a control episode with no schedule installed, from the same
seeds.  The two sample paths are bit-identical until the fault fires
(the injection machinery is stream-neutral), so the pre-fault phase
doubles as a self-check and the control episode supplies the healthy
baseline the degraded predictor is judged against.

Timeline of one episode (all within one simulated run)::

    warm caches | settle | window [t0, t1)
                           |-- before --|-- fault --|-- recovery --|

The window is one :func:`~repro.experiments.runner.window_episode` fed
phase-sized traffic segments, so the baseline online metrics (rates,
miss ratios) are read off the window counters when the first segment
ends -- the part of the window where the paper's Section IV-B pipeline
still sees a healthy system.  Both predictors are built from that
baseline alone; nothing measured during or after the fault feeds the
models.  As everywhere, ``t1`` is the clock when the window traffic
ended (an open-loop trace stops at its last arrival, a little short of
``t0 + window_duration``), every rate is over the span it was counted
in, and the recovery phase ends at ``t1``.

The fault matrix (:func:`run_fault_matrix`) crosses every fault type
with the S1/S16 workloads; the CLI subcommand (``cosmodel faults``)
runs one scenario and writes the JSON + table comparison artifact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.experiments.runner import CalibrationBundle, calibrate, window_episode
from repro.experiments.scenarios import Scenario, scenario_s1, scenario_s16
from repro.model import DegradedLatencyModel, LatencyPercentileModel
from repro.queueing import UnstableQueueError
from repro.simulator.backend import INDEX_ENTRY_BYTES, META_ENTRY_BYTES
from repro.simulator.cluster import Cluster
from repro.simulator.faults import (
    BackendStall,
    CacheFlush,
    DeviceFailStop,
    DiskSlowdown,
    FaultSchedule,
)
from repro.simulator.metrics import phase_attribution, sla_percentile_ci
from repro.workload.ssbench import OpenLoopDriver
from repro.workload.wikipedia import WikipediaTraceGenerator

__all__ = [
    "FAULT_SCENARIOS",
    "PhaseComparison",
    "FaultRunResult",
    "fault_schedule_for",
    "estimate_cold_fill_times",
    "run_fault_scenario",
    "run_fault_matrix",
    "write_artifact",
]

#: The named fault scenarios of the matrix.
FAULT_SCENARIOS = {
    "slow-disk": "device 0's spindle serves slower for the mid-window",
    "fail-stop": "device 0 drops out of the ring mid-window, then recovers",
    "cache-flush": "server 0's LRU caches are dropped mid-window",
    "stall": "device 0's disk freezes for a transient stall",
}


def fault_schedule_for(
    name: str,
    t0: float,
    window_duration: float,
    *,
    factor: float = 2.0,
    stall_fraction: float = 0.05,
) -> FaultSchedule:
    """The canonical schedule of one named scenario, anchored at the
    window start ``t0``.  Windowed faults occupy the middle ~40% of the
    window so every episode keeps all three phases."""
    w = window_duration
    start, end = t0 + 0.25 * w, t0 + 0.65 * w
    if name == "slow-disk":
        return FaultSchedule((DiskSlowdown(device=0, start=start, end=end, factor=factor),))
    if name == "fail-stop":
        return FaultSchedule((DeviceFailStop(device=0, start=start, end=end),))
    if name == "cache-flush":
        return FaultSchedule((CacheFlush(server=0, at=start),))
    if name == "stall":
        return FaultSchedule(
            (BackendStall(device=0, start=start, duration=stall_fraction * w),)
        )
    raise ValueError(f"unknown fault scenario {name!r}; use {sorted(FAULT_SCENARIOS)}")


def estimate_cold_fill_times(
    config,
    mean_object_bytes: float,
    n_objects: int,
    server_request_rate: float,
) -> tuple[float, float, float]:
    """Per-kind LRU refill times after a flush (for the cold transient).

    A flushed cache refills at its post-flush insertion rate: every
    access misses, so entries arrive at the access rate -- requests plus
    the maintenance scanner, which keeps walking the namespace and
    re-inserting entries and data chunks.  The fill time is the
    steady-state resident set divided by that rate; the degraded model's
    linear-refill transient then averages the coldness over it.
    """
    split_i, split_m, split_d = config.cache_split
    budget = config.cache_bytes_per_server
    scan = config.scanner_rate  # one scanner per server at the full rate

    def entry_fill(split: float, entry_bytes: int) -> float:
        rate = server_request_rate + scan
        capacity = (split * budget) / entry_bytes
        resident = min(capacity, float(n_objects))
        return resident / rate if rate > 0.0 else math.inf

    # Data refill is byte-limited: each miss re-inserts the bytes it read.
    byte_rate = (
        server_request_rate + scan * config.scanner_data_fraction
    ) * mean_object_bytes
    data_fill = (split_d * budget) / byte_rate if byte_rate > 0.0 else math.inf
    return (
        entry_fill(split_i, INDEX_ENTRY_BYTES),
        entry_fill(split_m, META_ENTRY_BYTES),
        data_fill,
    )


@dataclasses.dataclass(frozen=True)
class PhaseComparison:
    """One phase of the paired fault/control comparison."""

    phase: str
    t_start: float
    t_end: float
    n_fault: int
    observed_fault: float
    ci_lower: float
    ci_upper: float
    n_control: int
    observed_control: float
    predicted_degraded: float
    predicted_healthy: float
    mean_accept_wait: float
    mean_backend_response: float

    @property
    def abs_error_degraded(self) -> float:
        """Degraded predictor vs. the fault episode's observation."""
        return abs(self.predicted_degraded - self.observed_fault)

    @property
    def abs_error_healthy(self) -> float:
        """Healthy predictor vs. the control episode's observation --
        the error floor the degraded predictor is judged against."""
        return abs(self.predicted_healthy - self.observed_control)


@dataclasses.dataclass(frozen=True)
class FaultRunResult:
    """Everything one fault scenario produced."""

    scenario: str
    workload: str
    rate: float
    sla: float
    seed: int
    window: tuple[float, float]
    schedule: FaultSchedule
    phases: tuple[PhaseComparison, ...]

    def phase(self, name: str) -> PhaseComparison:
        for p in self.phases:
            if p.phase == name:
                return p
        raise KeyError(f"no phase {name!r} in result")

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        """JSON-ready document (the machine half of the artifact)."""

        def finite(x):
            if isinstance(x, (int, float)) and not math.isfinite(x):
                return None  # infinite fail-stop end etc. -> JSON null
            if isinstance(x, tuple):
                return list(x)
            return x

        return {
            "scenario": self.scenario,
            "workload": self.workload,
            "rate": self.rate,
            "sla_seconds": self.sla,
            "seed": self.seed,
            "window": list(self.window),
            "faults": [
                {
                    "type": type(f).__name__,
                    **{k: finite(v) for k, v in dataclasses.asdict(f).items()},
                }
                for f in self.schedule
            ],
            "phases": [
                {
                    **dataclasses.asdict(p),
                    "abs_error_degraded": p.abs_error_degraded,
                    "abs_error_healthy": p.abs_error_healthy,
                }
                for p in self.phases
            ],
        }

    def render(self) -> str:
        """Human-readable comparison table (the other half)."""
        lines = [
            f"fault scenario {self.scenario!r} on {self.workload}"
            f"  (rate {self.rate:g} req/s, SLA {self.sla * 1e3:g} ms, seed {self.seed})",
        ]
        for f in self.schedule:
            lines.append(f"  {f!r}")
        lines.append("")
        head = (
            f"  {'phase':10s} {'span (s)':>13s} {'n':>6s} {'obs':>7s}"
            f" {'pred-degr':>9s} {'|err|':>7s} {'obs-ctrl':>8s}"
            f" {'pred-hlthy':>10s} {'|err|':>7s}"
        )
        lines.append(head)
        lines.append("  " + "-" * (len(head) - 2))
        for p in self.phases:
            span = f"{p.t_start:.1f}-{p.t_end:.1f}"
            lines.append(
                f"  {p.phase:10s} {span:>13s} {p.n_fault:>6d}"
                f" {p.observed_fault:7.4f} {p.predicted_degraded:9.4f}"
                f" {p.abs_error_degraded:7.4f} {p.observed_control:8.4f}"
                f" {p.predicted_healthy:10.4f} {p.abs_error_healthy:7.4f}"
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
    fault: str,
    factor: float,
    install: bool,
    tracer=None,
):
    """One warm-settle-window episode.

    The cluster/trace seeds derive from one root sequence exactly as the
    sweep engine does, and the schedule is built (anchored at the actual
    window start) in both episodes so their traces segment identically;
    only ``install`` decides whether the faults actually fire.  Returns
    ``(schedule, phases, baseline_metrics, window_table)``.

    ``tracer`` (a :class:`repro.obs.Tracer`) records per-request spans;
    the phase tag advances at each phase boundary via marker events in
    the kernel, which touch no random stream -- so a traced episode is
    bit-identical to an untraced one.
    """
    root = np.random.SeedSequence(seed)
    cluster_seed, trace_seed = root.spawn(2)
    cluster = Cluster(scenario.cluster, catalog.sizes, seed=cluster_seed, tracer=tracer)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
    cluster.warm_caches(gen.warmup_accesses(scenario.warm_accesses))
    OpenLoopDriver(cluster).run(gen.constant_rate(rate, scenario.settle_duration))

    t0 = cluster.sim.now
    schedule = fault_schedule_for(fault, t0, scenario.window_duration, factor=factor)
    if install:
        cluster.inject_faults(schedule)
    phases = schedule.phases(t0, t0 + scenario.window_duration)
    if phases[0].name != "before":
        raise RuntimeError("fault schedule must leave a pre-fault phase")
    if tracer is not None:
        for phase in phases:
            cluster.sim.schedule_at(
                phase.start, tracer.set_phase, phase.name, phase.start
            )
    episode = window_episode(
        cluster, *(gen.constant_rate(rate, phase.duration) for phase in phases)
    )
    # The traffic ends at its last arrival; so does the recovery phase.
    phases = schedule.phases(t0, episode.t1)
    return schedule, phases, episode.metrics, episode.table


def run_fault_scenario(
    fault: str = "slow-disk",
    workload: str = "s1",
    *,
    rate: float | None = None,
    sla: float = 0.100,
    seed: int = 0,
    scale: str = "ci",
    factor: float = 2.0,
    scenario: Scenario | None = None,
    calibration: CalibrationBundle | None = None,
    disk_queue: str = "mm1k",
    tracer=None,
) -> FaultRunResult:
    """Run one fault scenario (fault episode + control episode) and
    compare observation with both predictors, per phase.

    ``scenario``/``calibration`` may be supplied to reuse a scaled-down
    scenario (the tests do); by default the named workload at ``scale``
    is used and calibrated on the spot.  ``tracer`` records per-request
    spans of the *fault* episode (the one worth attributing); the
    control episode always runs untraced.
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
    schedule, phases, baseline, fault_table = _run_episode(
        scenario, catalog, rate, seed, fault, factor, install=True, tracer=tracer
    )
    _, _, _, control_table = _run_episode(
        scenario, catalog, rate, seed, fault, factor, install=False
    )
    t0, t1 = phases[0].start, phases[-1].end

    # Both predictors are built from the healthy-prefix baseline alone.
    metrics = [m for m in baseline if m.request_rate > 0.0]
    if len(metrics) != len(baseline):
        raise RuntimeError(
            "a device served no requests in the pre-fault phase; "
            "lengthen the window or raise the rate"
        )
    params = calibration.system_parameters(scenario.cluster, metrics)
    per_server_rate = sum(m.request_rate for m in metrics) / max(
        scenario.cluster.n_backend_servers, 1
    )
    fill_times = estimate_cold_fill_times(
        scenario.cluster,
        float(catalog.sizes.mean()),
        scenario.n_objects,
        per_server_rate,
    )

    predicted_healthy = LatencyPercentileModel(
        params, disk_queue=disk_queue
    ).sla_percentile(sla)
    attribution = {p.phase: p for p in phase_attribution(fault_table, phases, sla)}

    rows = []
    for phase in phases:
        try:
            degraded = DegradedLatencyModel(
                params,
                schedule,
                (phase.start, phase.end),
                disk_queue=disk_queue,
                devices_per_server=scenario.cluster.devices_per_server,
                cold_fill_times=fill_times,
            ).sla_percentile(sla)
        except UnstableQueueError:
            degraded = float("nan")
        f_win = fault_table.window(phase.start, phase.end)
        c_win = control_table.window(phase.start, phase.end)
        if len(f_win):
            obs_f, lo, hi = sla_percentile_ci(f_win.response_latency, sla)
        else:
            obs_f = lo = hi = float("nan")
        obs_c = (
            float((c_win.response_latency <= sla).mean())
            if len(c_win)
            else float("nan")
        )
        att = attribution[phase.name]
        rows.append(
            PhaseComparison(
                phase=phase.name,
                t_start=phase.start,
                t_end=phase.end,
                n_fault=len(f_win),
                observed_fault=obs_f,
                ci_lower=lo,
                ci_upper=hi,
                n_control=len(c_win),
                observed_control=obs_c,
                predicted_degraded=degraded,
                predicted_healthy=predicted_healthy,
                mean_accept_wait=att.mean_accept_wait,
                mean_backend_response=att.mean_backend_response,
            )
        )
    return FaultRunResult(
        scenario=fault,
        workload=scenario.name,
        rate=float(rate),
        sla=float(sla),
        seed=seed,
        window=(t0, t1),
        schedule=schedule,
        phases=tuple(rows),
    )


# ----------------------------------------------------------------------
# fault matrix + artifact
# ----------------------------------------------------------------------


def run_fault_matrix(
    *,
    faults: Iterable[str] = tuple(FAULT_SCENARIOS),
    workloads: Sequence[str] = ("s1", "s16"),
    sla: float = 0.100,
    seed: int = 0,
    scale: str = "ci",
    scenarios: Mapping[str, Scenario] | None = None,
    calibrations: Mapping[str, CalibrationBundle] | None = None,
) -> dict[tuple[str, str], FaultRunResult]:
    """The full fault matrix: every fault type x every workload."""
    out: dict[tuple[str, str], FaultRunResult] = {}
    for workload in workloads:
        scenario = scenarios.get(workload) if scenarios else None
        calibration = calibrations.get(workload) if calibrations else None
        for fault in faults:
            out[(fault, workload)] = run_fault_scenario(
                fault,
                workload,
                sla=sla,
                seed=seed,
                scale=scale,
                scenario=scenario,
                calibration=calibration,
            )
    return out


def write_artifact(result: FaultRunResult, path: str) -> str:
    """Write the JSON half of the comparison artifact; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(result.to_doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
