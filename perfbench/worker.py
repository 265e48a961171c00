"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

``MODE`` is ``plain`` (untraced, timed for the end-to-end metrics) or
``traced`` (layer spans and the kernel profiler on from set-up to the
end of the output checks).  Prints one JSON object on its last line;
exits 3 when the fleet episode did not settle.  ``run.py`` starts one
worker per repetition, so memo and catalog caches start empty every
time.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def box_probe() -> float:
    """Seconds for a fixed pure-Python + numpy loop: a box-speed yardstick."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    x = np.random.default_rng(0).random(1 << 18)
    for _ in range(8):
        x = np.sort(np.abs(np.fft.irfft(np.fft.rfft(x), n=x.size)))
    return time.perf_counter() - t0


def setup(workload: str, draw: dict, traced: bool) -> dict:
    if traced and workload == "fleet_mixed":
        from repro.obs.telemetry import TelemetryConfig

        scenario = wl.fleet_scenario(telemetry=TelemetryConfig(profile=True))
        return wl.setup_fleet(draw, scenario=scenario)
    return wl.SETUPS[workload](draw)


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    traced = mode == "traced"
    from repro.distributions import evalcache
    from repro.laplace.inversion import RepairWarning

    draw = wl.DRAWS[workload](seed)
    trace = tracing.LayerTrace() if traced else None
    cache_before = evalcache.stats()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RepairWarning)
        if trace is not None:
            trace.__enter__()
        try:
            inp = setup(workload, draw, traced)
            setup_s = time.perf_counter() - T_START
            probe_before = box_probe()
            t0 = time.perf_counter()
            raw = wl.BODIES[workload](inp)
            wall_s = time.perf_counter() - t0
            probe_after = box_probe()
            result = wl.CHECKS[workload](inp, raw)
        except wl.SettlementError as err:
            print(f"{workload}: {err}", file=sys.stderr)
            return 3
        finally:
            if trace is not None:
                trace.__exit__(None, None, None)
        total_s = time.perf_counter() - T_START
        repairs = sum(issubclass(w.category, RepairWarning) for w in caught)
    cache_after = evalcache.stats()

    repairs += result.extra.pop("repair_warnings", 0)
    profile = result.extra.pop("profile", [])
    out = {
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": result.work,
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest,
        "checks": result.checks,
        "extra": result.extra,
        "box_probe_s": 0.5 * (probe_before + probe_after),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace is not None:
        out["layers"] = tracing.layer_metrics(
            trace,
            trace.profile_rows + list(profile),
            cache_before,
            cache_after,
            repairs,
            total_s,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
