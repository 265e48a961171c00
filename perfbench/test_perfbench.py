"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check the metric declarations, that every traced entry point
exists, that the workload seed reaches the generated inputs, that the settlement guard trips on an overloaded
fleet, and that the benchmark refuses to run without the program.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_use_the_allowed_charset(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_declared_metrics_match_what_the_benchmark_reports(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_traced_entry_point_exists():
    with tracing.LayerTrace() as trace:
        pass
    assert trace.missing == []


def _same(a, b) -> bool:
    return wl.digest(a) == wl.digest(b)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_seed_changes_the_generated_inputs(workload):
    draw = wl.DRAWS[workload]
    assert _same(draw(7), draw(7))
    assert not _same(draw(7), draw(8))


def test_percentiles_report_the_tail_with_ten_samples_beyond_it():
    pct = run.percentiles(range(1, 101))
    assert pct["n"] == 100 and pct["p50"] == 50.5
    assert pct["tail"] == 90 and pct["tail_pct"] == 90.0
    assert "tail" not in run.percentiles(range(10))


def test_settlement_accepts_a_flat_episode_and_rejects_growth():
    rng = np.random.default_rng(0)
    arrival = np.sort(rng.uniform(0.0, 40.0, 20_000))
    flat = rng.exponential(0.01, arrival.size)
    assert wl.settlement(arrival, flat, 40.0)["settled"]
    growing = flat + 0.05 * arrival
    assert not wl.settlement(arrival, growing, 40.0)["settled"]


def test_settlement_guard_trips_on_an_overloaded_fleet():
    overloaded = wl.fleet_scenario(
        n_clusters=1, rate=1_200.0, duration=8.0, warm_accesses=20_000
    )
    inp = wl.setup_fleet(wl.draw_fleet(3), scenario=overloaded)
    result = wl.run_fleet_body(inp)
    with pytest.raises(wl.SettlementError, match="did not settle"):
        wl.check_fleet(inp, result)


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
