#!/usr/bin/env bash
# Fleet sharding smoke check.
#
# Runs one small fleet episode (2 clusters x 4 devices = 8 devices,
# ~50k requests) serially and sharded over a 2-worker process pool,
# and fails unless the sharded run's merged MetricsRecorder state is
# bit-identical to the serial run's -- the exactness guarantee that
# licenses shard-by-cluster execution (docs/PERFORMANCE.md section 7).
#
# Usage: scripts/fleet_smoke.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

exec env PYTHONPATH="$REPO_ROOT/src" python - <<'EOF'
import time

from repro.experiments.fleet import FleetScenario, run_fleet

scenario = FleetScenario(
    n_clusters=2,
    objects_per_cluster=2_500,
    rate=2_500.0,        # ~50k requests over the episode
    duration=20.0,
    warm_accesses=10_000,
    write_fraction=0.05,
)
print(
    f"fleet_smoke: {scenario.n_clusters} clusters x "
    f"{scenario.cluster.n_devices} devices = {scenario.n_devices} devices, "
    f"~{int(scenario.rate * scenario.duration)} requests"
)

t0 = time.perf_counter()
serial = run_fleet(scenario, seed=0)
serial_s = time.perf_counter() - t0
print(
    f"fleet_smoke: serial   {serial.n_requests} req, {serial.events} events "
    f"in {serial_s:.2f}s"
)

t0 = time.perf_counter()
sharded = run_fleet(scenario, seed=0, shards=2, jobs=2)
sharded_s = time.perf_counter() - t0
print(
    f"fleet_smoke: sharded  {sharded.n_requests} req over "
    f"{sharded.n_shards} shards (jobs={sharded.jobs}) in {sharded_s:.2f}s"
)

if sharded.state != serial.state:
    raise SystemExit("fleet_smoke: FAIL -- sharded merge != serial state")
if sharded.per_cluster != serial.per_cluster:
    raise SystemExit("fleet_smoke: FAIL -- per-cluster counters differ")
print("fleet_smoke: OK -- sharded merge bit-identical to serial")
EOF
