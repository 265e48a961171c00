#!/usr/bin/env bash
# Fleet telemetry smoke check.
#
# Runs one small fleet episode three ways -- silent, and with full
# telemetry (1% deterministic sampled tracing + live bus streaming +
# the kernel time profiler) under two different shard plans -- and
# fails unless:
#
#   * the merged MetricsRecorder state is bit-identical across all
#     three runs (telemetry must never perturb the simulation);
#   * the sampled (cluster, rid) set is identical across shard plans
#     (head sampling hashes (trace_seed, cluster, rid) only);
#   * the kernel profiler attributed every event of the drained run;
#   * `cosmodel top --once` renders the streamed bus with every shard
#     finished and merged percentiles present.
#
# Usage: scripts/obs_fleet_smoke.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

exec env PYTHONPATH="$REPO_ROOT/src" python - <<'EOF'
import dataclasses
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.experiments.fleet import FleetScenario, run_fleet
from repro.obs.events import read_events
from repro.obs.telemetry import TelemetryConfig, merge_shard_traces, render_top

tmp = Path(tempfile.mkdtemp(prefix="obs-fleet-smoke-"))
bus = tmp / "events.jsonl"

scenario = FleetScenario(
    n_clusters=2,
    objects_per_cluster=1_000,
    rate=1_500.0,        # ~30k requests over the episode
    duration=20.0,
    warm_accesses=5_000,
    write_fraction=0.05,
)
print(
    f"obs_fleet_smoke: {scenario.n_clusters} clusters, "
    f"~{int(scenario.rate * scenario.duration)} requests"
)

silent = run_fleet(scenario, seed=0)
print(f"obs_fleet_smoke: silent   {silent.n_requests} req, {silent.events} events")


def telemetry_run(tag, shards, jobs):
    tdir = tmp / f"traces-{tag}"
    tdir.mkdir()
    telem = TelemetryConfig(
        trace_sample_rate=0.01,
        trace_seed=5,
        trace_dir=str(tdir),
        bus_path=str(bus),
        stream_interval=0.1,
        profile=True,
    )
    result = run_fleet(
        dataclasses.replace(scenario, telemetry=telem),
        seed=0, shards=shards, jobs=jobs,
    )
    sampled = sorted({
        (r["cluster"], r["rid"])
        for r in merge_shard_traces(tdir)
        if "rid" in r
    })
    print(
        f"obs_fleet_smoke: {tag:8s} {result.n_requests} req, "
        f"{len(sampled)} sampled rids, "
        f"{sum(r['events'] for r in result.profile)} profiled events"
    )
    return result, sampled


serial, sampled_serial = telemetry_run("serial", None, None)
pooled, sampled_pooled = telemetry_run("pooled", 2, 2)

if serial.state != silent.state:
    raise SystemExit("obs_fleet_smoke: FAIL -- telemetry perturbed the state")
if pooled.state != silent.state:
    raise SystemExit("obs_fleet_smoke: FAIL -- pooled telemetry state differs")
print("obs_fleet_smoke: OK -- state bit-identical with telemetry on/off")

if not sampled_serial:
    raise SystemExit("obs_fleet_smoke: FAIL -- 1% sampling traced nothing")
if sampled_serial != sampled_pooled:
    raise SystemExit(
        "obs_fleet_smoke: FAIL -- sampled set depends on the shard plan"
    )
print(
    f"obs_fleet_smoke: OK -- sampled set shard-plan-invariant "
    f"({len(sampled_serial)} requests)"
)

profiled = sum(r["events"] for r in serial.profile)
if profiled != serial.events:
    raise SystemExit(
        f"obs_fleet_smoke: FAIL -- profiler attributed {profiled} of "
        f"{serial.events} events"
    )
print("obs_fleet_smoke: OK -- profiler accounts drained run")

# The streamed bus must reconstruct the fleet through `cosmodel top`.
proc = subprocess.run(
    [sys.executable, "-m", "repro.cli", "top", str(bus), "--once"],
    capture_output=True, text=True,
)
if proc.returncode != 0:
    raise SystemExit(f"obs_fleet_smoke: FAIL -- cosmodel top: {proc.stderr}")
out = proc.stdout
print(out)
if "done" not in out or "p99" not in out:
    raise SystemExit("obs_fleet_smoke: FAIL -- top rendering incomplete")
finished = [e for e in read_events(bus, strict=False)
            if e["event"] == "shard_finished"]
if len(finished) < 2 * scenario.n_clusters:  # serial + pooled runs
    raise SystemExit("obs_fleet_smoke: FAIL -- missing shard_finished events")
print("obs_fleet_smoke: OK -- live bus consumed by cosmodel top")
EOF
