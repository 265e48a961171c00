"""``cosmodel inspect``: make one scenario's model composition visible.

Builds the paper's model for a scenario (or a ``system.json``
description) and renders what is normally hidden inside
``sla_percentile``:

* the evaluation plan the model compiled (its classes, distinct leaf
  laws and M/M/1/K disks) and the per-class distribution trees whose
  laws it evaluates -- every union-operation node with its structure,
  moments, zero-atom mass and recurring value tokens
  (:func:`repro.obs.diagnostics.render_tree`);
* the per-device breakdown and rate-weighted stage means;
* live inversion telemetry for the scenario's SLA evaluations -- the
  model is asked for each SLA percentile inside a
  :class:`~repro.obs.diagnostics.DiagnosticsSession`, so the output
  shows the self-error / cross-method agreement of exactly the
  inversions the headline numbers come from.

For a scenario name the model inputs are fitted from a short simulated
measurement window (a scaled-down calibration + settle + window, like
the golden tests use); for a JSON file they are taken as given and no
simulation runs.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.experiments.parallel import measure_point
from repro.experiments.runner import _point_tasks, _prepare_context, calibrate
from repro.experiments.scenarios import scenario_s1, scenario_s16
from repro.model import build_model
from repro.model.plan import SystemPlan

__all__ = ["inspect_target", "render_inspection"]

SCENARIOS = {"s1": scenario_s1, "s16": scenario_s16}

#: Measurement overrides for inspection runs: the tree structure and the
#: inversion telemetry do not need tight percentile CIs, so the window
#: is kept short enough for interactive use.
_QUICK = dict(
    n_objects=4_000,
    warm_accesses=10_000,
    window_duration=4.0,
    settle_duration=1.0,
)


def inspect_target(
    target: str,
    *,
    rate: float | None = None,
    seed: int = 7,
    quick: bool = True,
):
    """Resolve an inspect target to ``(model, slas, source_note)``.

    ``target`` is a scenario key (``s1``/``s16``) -- fitted from a short
    simulated window at ``rate`` (default: the scenario's middle rate
    point) -- or a path to a ``system.json`` parameter file.
    """
    if target.lower() in SCENARIOS:
        scenario = SCENARIOS[target.lower()]()
        if quick:
            scenario = dataclasses.replace(scenario, **_QUICK)
        rates = scenario.rates
        rate = float(rate) if rate is not None else rates[len(rates) // 2]
        scenario = dataclasses.replace(scenario, rates=(rate,))
        calibration = calibrate(
            scenario, disk_objects=300, parse_requests=30, seed=seed
        )
        ctx = _prepare_context(
            scenario,
            models=("ours",),
            calibration=calibration,
            seed=seed,
            rescale_service=False,
        )
        task = _point_tasks(scenario.name, scenario, (rate,), seed)[0]
        table, _, _, params = measure_point(ctx, task)
        if table is None:
            raise RuntimeError(
                f"inspection window for {scenario.name} at rate {rate:g} "
                "recorded no requests; raise the rate or window duration"
            )
        note = (
            f"scenario {scenario.name} at {rate:g} req/s "
            f"({len(table)} requests measured, seed {seed})"
        )
        slas = tuple(scenario.slas)
    else:
        path = Path(target)
        doc = json.loads(path.read_text())
        from repro.cli import load_system

        params, slas = load_system(doc)
        note = f"system description {path}"
    model = build_model("ours", params)
    return model, slas, note


def render_inspection(model, slas, note: str) -> str:
    """Full inspection report: tree, breakdown, SLA diagnostics."""
    from repro.obs.diagnostics import DiagnosticsSession, render_tree, tree_summary

    sections = [f"model inspection: {note}", ""]

    if isinstance(model.system_latency, SystemPlan):
        sections.append(f"evaluation plan: {model.system_latency!r}")
    summary = tree_summary(model.system_latency)
    sections.append(
        f"distribution tree ({summary['n_nodes']} nodes, "
        f"{summary['n_shared_nodes']} shared, "
        f"{summary['n_uncacheable_nodes']} uncacheable):"
    )
    sections.append(render_tree(model.system_latency))
    sections.append("")

    sections.append("per-device breakdown (ms):")
    sections.append(
        f"  {'device':10s} {'util':>6s} {'Sq':>8s} {'Wa':>8s} {'Sbe':>9s}"
    )
    for row in model.breakdown():
        sections.append(
            f"  {row.device:10s} {row.utilization:6.2f}"
            f" {row.mean_frontend_queueing * 1e3:8.3f}"
            f" {row.mean_accept_wait * 1e3:8.3f}"
            f" {row.mean_backend_response * 1e3:9.3f}"
        )
    stages = model.stage_means()
    sections.append(
        "  rate-weighted stage means: "
        + "  ".join(
            f"{k}={v * 1e3:.3f}ms" for k, v in stages.items() if k != "total"
        )
        + f"  total={stages['total'] * 1e3:.3f}ms"
    )
    sections.append("")

    with DiagnosticsSession() as session:
        percentiles = {sla: model.sla_percentile(sla) for sla in slas}
    sections.append("SLA percentiles (diagnosed inversions):")
    for sla, value in percentiles.items():
        sections.append(f"  {sla * 1e3:7.1f} ms -> {value * 100:6.2f}%")
    sections.append("")
    sections.append(session.render())
    return "\n".join(sections)
