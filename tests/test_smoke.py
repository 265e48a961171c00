"""End-to-end smoke flows through the ``cosmodel`` CLI and the paired
redundancy runner.

Each flow drives a user-facing path in one process and checks the
rendered output, not numbers: a traced fault run rendered by
``cosmodel report``; ``cosmodel inspect``; a diagnosed sweep replayed
by ``cosmodel watch`` and rendered by ``cosmodel report``; and one
paired kofn@2 episode.  Numbers are pinned elsewhere (the goldens and
the bit-identity audits).

These run under the ``smoke`` marker, outside tier-1::

    PYTHONPATH=src python -m pytest tests -m smoke -q
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke


def _run(capsys, *argv) -> str:
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def test_traced_fault_run_reports(tmp_path, capsys):
    spans = tmp_path / "spans.jsonl"
    artifact = tmp_path / "faults.json"
    _run(
        capsys, "faults", "--scenario", "slow-disk", "--workload", "s1",
        "--trace", spans, "--out", artifact,
    )

    report = _run(capsys, "report", spans)
    assert "per-phase latency attribution" in report
    assert "fault" in report

    manifest = _run(capsys, "report", f"{artifact}.manifest.json")
    assert "run manifest" in manifest
    _run(capsys, "report", artifact)


def test_inspect_renders_tree_and_diagnostics(capsys):
    inspection = _run(capsys, "inspect", "s1")
    assert "distribution tree" in inspection
    assert "shared x" in inspection
    assert "inversion diagnostics session" in inspection


def test_diagnosed_sweep_watch_and_report(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    artifact = tmp_path / "sweep.json"
    _run(
        capsys, "sweep", "--workload", "s1", "--quick", "--rates", "40,100",
        "--seed", "7", "--events", events, "--diagnose", "--out", artifact,
    )

    watched = _run(capsys, "watch", events, "--once")
    for event in ("sweep_started", "point_finished", "sweep_finished"):
        assert event in watched

    report = _run(capsys, "report", artifact)
    assert "error attribution" in report
    assert "inversion diagnostics" in report
    assert "run manifest" in report


def test_paired_kofn_episode():
    from repro.experiments.redundancy import run_redundancy_scenario

    # Moderate rate: kofn@2 doubles per-device read load, and the
    # analytic queue must stay stable for the prediction to be finite.
    result = run_redundancy_scenario(
        strategy="kofn", fanout=2, workload="s1", rate=40.0, seed=0
    )
    treated, control = result.treated, result.control
    assert math.isfinite(treated.predicted_sla)
    assert math.isfinite(control.predicted_sla)
    assert treated.probes > treated.n_requests
    assert control.probes == 0
