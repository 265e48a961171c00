"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter
(``worker.py``), one after another, until ``S`` seconds have passed.
With ``--trace 0`` every repetition is untraced and the last output
line is a JSON object carrying the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced repetitions
alternate and the JSON carries the per-layer metrics, including the
tracing overhead.  The lines above it print every metric by name, with
its unit, including the workload's own (``sweep_mae``,
``query_cold_p50_ms``, ...).  See ``perfbench/README.md``.

Exit codes: 0 on a result (``correct`` says whether the output checks
held), 1 when a repetition failed, 2 when the program's sources are
missing, 3 when the fleet episode did not settle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    FLEET_RATE_PER_CLUSTER,
    WORKLOADS,
)

#: ``wall_per_probe`` is the body's wall time over the box-speed probe's,
#: both measured in the same repetition.  On a shared host the machine's
#: speed can drift by 2x within minutes; the ratio stays about twice as
#: steady as raw seconds there (raw ``wall_s`` is printed beside it).
END_TO_END = (
    ("wall_per_probe", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Every repetition, including set-up, must end by then (seconds).
DEADLINE_S = 165.0


def percentiles(samples) -> dict:
    """Median, and the highest percentile with at least 10 samples above it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs) if xs else math.nan}
    if n > 10:
        k = n - 10  # xs[k:] holds the 10 largest samples
        out["tail_pct"] = 100.0 * k / n
        out["tail"] = xs[k - 1]
    return out


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: a {mode} repetition ran past {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions until ``seconds`` pass (at least one of each mode)."""
    modes = ("plain", "traced") if trace else ("plain",)
    reps = {mode: [] for mode in ("plain", "traced")}
    start = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        mode = modes[i % len(modes)]
        elapsed = time.monotonic() - start
        t0 = time.monotonic()
        reps[mode].append(run_worker(workload, seed, mode, DEADLINE_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        i += 1
        elapsed = time.monotonic() - start
        if i >= len(modes) and (
            elapsed >= seconds or elapsed + 1.5 * longest > DEADLINE_S
        ):
            break
    return reps


def med(values) -> float:
    return statistics.median(list(values))


def unit_of(name: str) -> str:
    """The unit of a traced metric: declared, or read off its suffix."""
    unit = dict(PER_LAYER).get(name)
    if unit is None:
        unit = "us" if name.endswith("_us") else "s" if name.endswith(".s") else "count"
    return unit


def workload_lines(workload: str, plain: list) -> list[tuple[str, float, str]]:
    """The workload's own metrics, named as in ``perfbench/README.md``."""
    wall = med(r["wall_s"] for r in plain)
    extra = [r["extra"] for r in plain]
    if workload == "sweep_s1s16":
        return [
            ("sweep_wall_s", wall, "s"),
            ("sweep_mae", extra[0]["sweep_mae"], "1"),
            ("sweep_unstable_frac", extra[0]["sweep_unstable_frac"], "1"),
            ("sweep_sim_req_per_s", med(r["work"] / r["wall_s"] for r in plain), "1/s"),
        ]
    if workload == "fleet_mixed":
        q = extra[0]["fleet_quarters_ms"]
        return [
            ("fleet_req_per_s", med(r["work"] / r["wall_s"] for r in plain), "1/s"),
            (
                "fleet_events_per_s",
                med(r["extra"]["fleet_events"] / r["wall_s"] for r in plain),
                "1/s",
            ),
            ("fleet_fail_frac", extra[0]["fleet_fail_frac"], "1"),
            (
                "fleet_disk_ops_per_req",
                extra[0]["fleet_disk_ops"] / plain[0]["work"],
                "count",
            ),
            ("fleet_rate_per_cluster", FLEET_RATE_PER_CLUSTER, "1/s"),
            ("fleet_q2_p50_ms", q[1][0], "ms"),
            ("fleet_q2_p99_ms", q[1][1], "ms"),
            ("fleet_q4_p50_ms", q[3][0], "ms"),
            ("fleet_q4_p99_ms", q[3][1], "ms"),
        ] + [
            (name, value, "x" if name.endswith("max_scale") else "1")
            for name, value in extra[0].items()
            if name.startswith(("fleet_model_", "fleet_observed_"))
        ]
    lines = [("query_per_s", med(r["work"] / r["wall_s"] for r in plain), "1/s")]
    for kind, label in (
        ("cold", "query_cold"),
        ("warm", "query_warm"),
        ("quantile", "quantile"),
        ("kofn", "kofn_query"),
    ):
        pct = percentiles(
            1e3 * x for r in extra for x in r["latencies_s"][kind]
        )
        lines.append((f"{label}_p50_ms", pct["p50"], "ms"))
        if pct.get("tail_pct", 0.0) > 50.0:
            lines.append(
                (f"{label}_tail_ms", pct["tail"], f"ms@p{pct['tail_pct']:.1f}")
            )
        lines.append((f"{label}_samples", pct["n"], "count"))
    lines.append(
        ("query_nonconverged_frac", extra[0]["query_nonconverged_frac"], "1")
    )
    return lines


def summarise(workload: str, reps: dict, trace: bool) -> tuple[dict, list]:
    plain, traced = reps["plain"], reps["traced"]
    everyone = plain + traced
    digests = {r["digest"] for r in everyone}
    checks = {name: all(r["checks"][name] for r in everyone) for name in plain[0]["checks"]}
    checks["same_outputs_every_repetition"] = len(digests) == 1
    correct = all(checks.values())

    e2e = {
        "wall_per_probe": med(r["wall_s"] / r["box_probe_s"] for r in plain),
        "setup_s": med(r["setup_s"] for r in plain),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    lines = [(name, e2e[name], unit) for name, unit in END_TO_END]
    lines += [("wall_s", med(r["wall_s"] for r in plain), "s")]
    lines += workload_lines(workload, plain)
    lines += [
        ("box_probe_s", med(r["box_probe_s"] for r in everyone), "s"),
        ("plain_repetitions", len(plain), "count"),
        ("traced_repetitions", len(traced), "count"),
    ]
    lines += [(f"check.{name}", float(ok), "bool") for name, ok in checks.items()]

    if trace:
        layers = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        layers["obs.trace_overhead"] = (
            med(r["wall_s"] / r["box_probe_s"] for r in traced) / e2e["wall_per_probe"] - 1.0
        )
        lines += [(name, value, unit_of(name)) for name, value in layers.items()]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    result, lines = summarise(args.workload, reps, bool(args.trace))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value, unit in lines:
        print(f"{name:32s} {value!r:>24} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
