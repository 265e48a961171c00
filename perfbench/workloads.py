"""The benchmark's three workloads: seeded inputs, timed bodies, checks.

Each workload is split the same way:

* a *draw* function turns the workload seed into plain numbers (seeds,
  loads, miss ratios, SLAs) and needs nothing but numpy -- the program
  never sees the workload seed, only what is generated from it;
* a *setup* function builds the program's inputs from those numbers
  (calibration, parameter sets) and is timed as set-up;
* a *body* function is the measured work: the caller times it and
  passes what it returned to the workload's *check* function, which
  runs after the clock stops and returns a :class:`BodyResult`.

``repro`` is imported inside the functions, so ``draw_*`` and the
settlement guard can be tested without the program on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct
import time
import warnings

import numpy as np

WORKLOADS = ("sweep_s1s16", "fleet_mixed", "model_whatif")

# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


@dataclasses.dataclass
class BodyResult:
    """What one timed body produced.

    ``work`` counts the workload's units (simulated requests or
    queries) for the throughput metric; ``attempted``/``failed`` are the
    operations tried and failed; ``digest`` fingerprints the program's
    outputs so runs of one seed can be compared bit for bit; ``checks``
    names each output check and whether it held; ``extra`` carries the
    workload's own metrics.
    """

    work: int
    attempted: int
    failed: int
    digest: str
    checks: dict
    extra: dict


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode())
    elif dataclasses.is_dataclass(obj):
        _feed(h, dataclasses.asdict(obj))
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def digest(obj) -> str:
    """Exact fingerprint of nested results (floats by their bits)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality that treats NaN as equal to NaN."""
    return struct.pack("<d", a) == struct.pack("<d", b)


def _seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence([20170814, seed]))
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


# ----------------------------------------------------------------------
# sweep_s1s16: the paper's validation sweep
# ----------------------------------------------------------------------

#: The bench rate grids: five points each over the S1 and S16 ci ranges.
SWEEP_RATES = {
    "S1": (30.0, 70.0, 110.0, 150.0, 190.0),
    "S16": (40.0, 94.0, 148.0, 202.0, 256.0),
}
SWEEP_MODELS = ("ours", "odopr", "nowta")
#: Largest mean |predicted - observed| of ``ours`` the check accepts.
#: The bench grids read 0.09-0.10 across seeds.
SWEEP_MAE_LIMIT = 0.15


def draw_sweep(seed: int) -> dict:
    sweep_seed, calibration_seed = _seeds(seed, 2)
    return {"sweep_seed": sweep_seed, "calibration_seed": calibration_seed}


def setup_sweep(draw: dict) -> dict:
    from repro.experiments import calibrate, scenario_s1, scenario_s16

    scenarios = {
        "S1": dataclasses.replace(scenario_s1(), rates=SWEEP_RATES["S1"]),
        "S16": dataclasses.replace(scenario_s16(), rates=SWEEP_RATES["S16"]),
    }
    calibrations = {
        name: calibrate(sc, seed=draw["calibration_seed"])
        for name, sc in scenarios.items()
    }
    return {"scenarios": scenarios, "calibrations": calibrations, **draw}


def run_sweep_body(inp: dict):
    from repro.experiments import run_sweeps

    return run_sweeps(
        inp["scenarios"],
        models=SWEEP_MODELS,
        calibrations=inp["calibrations"],
        seed=inp["sweep_seed"],
        jobs=1,
    )


def check_sweep(inp: dict, results) -> BodyResult:
    points = [p for name in sorted(results) for p in results[name].points]
    errors, predictions = [], []
    for name in sorted(results):
        res = results[name]
        for p in res.points:
            for model in res.models:
                predictions.extend(p.predicted[model][s] for s in res.slas)
            errors.extend(abs(p.error("ours", s)) for s in res.slas)
    finite = [e for e in errors if not math.isnan(e)]
    mae = sum(finite) / len(finite) if finite else float("nan")
    unstable = sum(math.isnan(x) for x in predictions)
    n_points = sum(len(sc.rates) for sc in inp["scenarios"].values())
    return BodyResult(
        work=sum(p.n_requests for p in points),
        attempted=len(predictions),
        failed=unstable,
        digest=digest(points),
        checks={
            "every_point_measured": len(points) == n_points,
            "mae_within_limit": math.isfinite(mae) and mae <= SWEEP_MAE_LIMIT,
        },
        extra={
            "sweep_mae": mae,
            "sweep_unstable_frac": unstable / len(predictions),
        },
    )


# ----------------------------------------------------------------------
# fleet_mixed: a settled open-loop fleet episode with writes
# ----------------------------------------------------------------------

FLEET_CLUSTERS = 8
#: Requests per second per cluster.  250 settles (p50 ~10 ms, p99
#: ~120-160 ms, flat across quarters); 400 grows without bound.
FLEET_RATE_PER_CLUSTER = 250.0
FLEET_DURATION_S = 40.0
#: 20k warm-up accesses per cluster; with fewer, the first quarter is a
#: cold-cache transient that looks like overload.
FLEET_WARM_PER_CLUSTER = 20_000
FLEET_WRITE_FRACTION = 0.05
#: Settlement guard: the last quarter's p50 and p99 may exceed the
#: second quarter's by at most this factor.
SETTLE_GROWTH = 1.5
#: SLAs (seconds) of the model-vs-observed cross-check.
FLEET_SLAS = (0.05, 0.2)


class SettlementError(RuntimeError):
    """The fleet episode's latency grew across the episode (overload)."""


def fleet_scenario(**overrides):
    from repro.experiments.fleet import FleetScenario

    fields = dict(
        n_clusters=FLEET_CLUSTERS,
        objects_per_cluster=2_000,
        rate=FLEET_CLUSTERS * FLEET_RATE_PER_CLUSTER,
        duration=FLEET_DURATION_S,
        warm_accesses=FLEET_CLUSTERS * FLEET_WARM_PER_CLUSTER,
        write_fraction=FLEET_WRITE_FRACTION,
    )
    fields.update(overrides)
    return FleetScenario(**fields)


def draw_fleet(seed: int) -> dict:
    fleet_seed, calibration_seed = _seeds(seed, 2)
    return {"fleet_seed": fleet_seed, "calibration_seed": calibration_seed}


def setup_fleet(draw: dict, scenario=None) -> dict:
    from repro.experiments import calibrate
    from repro.experiments.fleet import build_cluster_tasks

    scenario = scenario or fleet_scenario()
    # The issued-request count, to count requests lost after the drain.
    _, tasks = build_cluster_tasks(scenario, draw["fleet_seed"])
    calibration = calibrate(scenario, seed=draw["calibration_seed"])
    return {
        "scenario": scenario,
        "issued": sum(t.times.size for t in tasks),
        "calibration": calibration,
        **draw,
    }


def settlement(arrival, latency, duration: float) -> dict:
    """Per-quarter p50/p99 and whether the episode settled.

    The first quarter is the start-up transient and is only reported.
    The episode counts as settled when neither the p50 nor the p99 of
    the last quarter exceeds the second quarter's by more than
    :data:`SETTLE_GROWTH`.
    """
    arrival = np.asarray(arrival, dtype=float)
    latency = np.asarray(latency, dtype=float)
    quarters = []
    for i in range(4):
        mask = (arrival >= duration * i / 4) & (arrival < duration * (i + 1) / 4)
        if not mask.any():
            quarters.append((math.inf, math.inf))
            continue
        p50, p99 = np.percentile(latency[mask], [50.0, 99.0])
        quarters.append((float(p50), float(p99)))
    (_, _), (p50_2, p99_2), (_, _), (p50_4, p99_4) = quarters
    settled = p50_4 <= SETTLE_GROWTH * p50_2 and p99_4 <= SETTLE_GROWTH * p99_2
    return {"quarters": quarters, "settled": bool(settled)}


def _model_cross_check(result, scenario, calibration) -> dict:
    """The model's view of the measured fleet load, for the report.

    ``max_stable_scale()`` at the measured per-device load, and the
    predicted fraction of requests within each of :data:`FLEET_SLAS`
    beside the observed fraction.  The model has no write path, so every
    replica operation counts as a read: a write adds one request on each
    of its ``replicas`` devices.  Miss ratios are set uniformly so the
    modelled disk-operation rate equals the measured one.  A cross-check
    only: the model's ceiling is known to sit well above where the
    simulator saturates, so it does not choose the rate.
    """
    from repro.model import (
        CacheMissRatios,
        DeviceParameters,
        FrontendParameters,
        LatencyPercentileModel,
        SystemParameters,
    )

    table = result.recorder.requests()
    n_devices = scenario.n_devices
    replicas = scenario.cluster.replicas
    reads = ~table.is_write
    ops = reads.sum() + replicas * table.is_write.sum()
    chunks = table.n_chunks[reads].sum() + replicas * table.n_chunks[~reads].sum()
    rate = ops / (n_devices * scenario.duration)
    data_rate = max(chunks / (n_devices * scenario.duration), rate)
    miss = min(1.0, result.disk_ops / (2.0 * ops + chunks))
    device = DeviceParameters(
        "dev",
        float(rate),
        float(data_rate),
        CacheMissRatios(miss, miss, miss),
        calibration.profile,
        calibration.parse_benchmark.backend,
        scenario.cluster.processes_per_device,
    )
    frontend = FrontendParameters(
        scenario.cluster.n_frontend_processes, calibration.parse_benchmark.frontend
    )
    model = LatencyPercentileModel(SystemParameters(frontend, (device,)))
    out = {"fleet_model_max_scale": model.max_stable_scale()}
    for sla in FLEET_SLAS:
        tag = f"{sla * 1e3:g}ms"
        out[f"fleet_model_sla_{tag}"] = model.sla_percentile(sla)
        out[f"fleet_observed_sla_{tag}"] = float(np.mean(table.response_latency <= sla))
    return out


def run_fleet_body(inp: dict):
    from repro.experiments.fleet import run_fleet

    return run_fleet(inp["scenario"], seed=inp["fleet_seed"])


def check_fleet(inp: dict, result) -> BodyResult:
    scenario = inp["scenario"]
    table = result.recorder.requests()
    verdict = settlement(table.arrival, table.response_latency, scenario.duration)
    if not verdict["settled"]:
        q = verdict["quarters"]
        raise SettlementError(
            "fleet episode did not settle: quarter p50/p99 (ms) "
            + ", ".join(f"{a * 1e3:.1f}/{b * 1e3:.1f}" for a, b in q)
        )
    lost = inp["issued"] - result.n_requests
    return BodyResult(
        work=result.n_requests,
        attempted=inp["issued"],
        failed=lost,
        digest=digest(result.state),
        checks={"no_request_lost": lost == 0},
        extra={
            "fleet_events": result.events,
            "fleet_disk_ops": result.disk_ops,
            "fleet_fail_frac": lost / inp["issued"],
            "fleet_quarters_ms": [
                [round(a * 1e3, 3), round(b * 1e3, 3)] for a, b in verdict["quarters"]
            ],
            **_model_cross_check(result, scenario, inp["calibration"]),
            "profile": list(result.profile),
        },
    )


# ----------------------------------------------------------------------
# model_whatif: closed-loop analytic queries
# ----------------------------------------------------------------------

#: ``n_processes`` and the (index, meta, data) miss-ratio bands of each
#: parameter-set shape, around what the S1/S16 sweep windows measure at
#: mid-grid rates.
WHATIF_SHAPES = {
    "S1": (1, ((0.30, 0.50), (0.35, 0.55), (0.70, 0.85))),
    "S16": (16, ((0.20, 0.30), (0.27, 0.35), (0.70, 0.80))),
}
WHATIF_SETS = 128
WHATIF_DEVICES = 16
#: Every this-many parameter sets also gets a ``latency_quantile`` query.
WHATIF_QUANTILE_EVERY = 4
WHATIF_QUANTILE = 0.99
#: One kofn@2 query on a 4-device S1-shaped set.  Each one leaves about
#: 750 MB of inversion arrays in the (entry-count-bounded) memo, so more
#: would mostly measure memory.
KOFN_SHAPES = ("S1",)
KOFN_DEVICES = 4
KOFN_FANOUT = 2
#: Device load as a fraction of the shape's largest stable rate.
WHATIF_LOAD = (0.2, 0.7)
#: Extra data reads per request (``r_data / r - 1``).
WHATIF_EXTRA_READS = (0.02, 0.06)
WHATIF_SLA = (0.02, 0.10)
#: Every this-many cold answers is recomputed with the memo bypassed.
WHATIF_BYPASS_EVERY = 8


def _shape_of(i: int) -> str:
    return "S1" if i % 2 == 0 else "S16"


def draw_whatif(seed: int) -> dict:
    (s,) = _seeds(seed, 1)
    rng = np.random.default_rng(s)

    def sets(n: int, n_dev: int) -> dict:
        return {
            "load": rng.uniform(*WHATIF_LOAD, size=(n, n_dev)),
            "miss": rng.random(size=(n, n_dev, 3)),
            "extra": rng.uniform(*WHATIF_EXTRA_READS, size=(n, n_dev)),
            "sla": rng.uniform(*WHATIF_SLA, size=n),
        }

    return {
        "sets": sets(WHATIF_SETS, WHATIF_DEVICES),
        "kofn": sets(len(KOFN_SHAPES), KOFN_DEVICES),
        "ring_seeds": [int(x) for x in rng.integers(0, 2**31 - 1, size=len(KOFN_SHAPES))],
    }


def _device_params(name, load, miss_u, extra, shape, calibration, rate_max):
    from repro.model import CacheMissRatios, DeviceParameters

    n_be, bands = WHATIF_SHAPES[shape]
    miss = [lo + u * (hi - lo) for u, (lo, hi) in zip(miss_u, bands)]
    rate = float(load) * rate_max
    return DeviceParameters(
        name,
        rate,
        rate * (1.0 + float(extra)),
        CacheMissRatios(*miss),
        calibration.profile,
        calibration.parse_benchmark.backend,
        n_be,
    )


def setup_whatif(draw: dict) -> dict:
    from repro.experiments import calibrate, scenario_s1, scenario_s16
    from repro.model import (
        FrontendParameters,
        LatencyPercentileModel,
        SystemParameters,
    )
    from repro.model.redundancy import replica_sets_from_ring
    from repro.simulator.ring import HashRing

    calibrations = {
        "S1": calibrate(scenario_s1(), seed=0),
        "S16": calibrate(scenario_s16(), seed=0),
    }
    frontends = {
        shape: FrontendParameters(12, cal.parse_benchmark.frontend)
        for shape, cal in calibrations.items()
    }
    # Largest stable per-device rate of each shape, at the top of its
    # miss-ratio bands; loads are drawn as a fraction of it.
    rate_max = {}
    for shape, cal in calibrations.items():
        ref = _device_params("ref", 1.0, (1.0, 1.0, 1.0), WHATIF_EXTRA_READS[1], shape, cal, 1.0)
        model = LatencyPercentileModel(SystemParameters(frontends[shape], (ref,)))
        rate_max[shape] = model.max_stable_scale()

    def build(block, i, shape, n_dev):
        devices = tuple(
            _device_params(
                f"d{j}",
                block["load"][i, j],
                block["miss"][i, j],
                block["extra"][i, j],
                shape,
                calibrations[shape],
                rate_max[shape],
            )
            for j in range(n_dev)
        )
        return SystemParameters(frontends[shape], devices)

    s = draw["sets"]
    sets = [
        (build(s, i, _shape_of(i), WHATIF_DEVICES), float(s["sla"][i]))
        for i in range(WHATIF_SETS)
    ]
    k = draw["kofn"]
    kofn = []
    for i, shape in enumerate(KOFN_SHAPES):
        params = build(k, i, shape, KOFN_DEVICES)
        ring = HashRing(1024, KOFN_DEVICES, 3, np.random.default_rng(draw["ring_seeds"][i]))
        rows = replica_sets_from_ring(ring, [d.name for d in params.devices])
        kofn.append((params, rows, float(k["sla"][i])))
    return {"sets": sets, "kofn": kofn}


def run_whatif_body(inp: dict) -> dict:
    """One closed-loop client: each query starts when the last returns.

    A query is model construction plus one evaluation, timed on its
    own.  RepairWarnings are caught here, not by the caller, so each is
    charged to the query that raised it.
    """
    from repro.laplace.inversion import RepairWarning
    from repro.model import LatencyPercentileModel
    from repro.model.redundancy import RedundantLatencyModel

    lat = {kind: [] for kind in ("cold", "warm", "quantile", "kofn")}
    answers = {kind: [] for kind in lat}
    nonconverged = 0
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RepairWarning)

        def query(kind, ask):
            nonlocal nonconverged
            mark = len(caught)
            t0 = clock()
            answer = ask()
            lat[kind].append(clock() - t0)
            answers[kind].append(answer)
            nonconverged += any(
                issubclass(w.category, RepairWarning) for w in caught[mark:]
            )

        for i, (params, sla) in enumerate(inp["sets"]):
            model = None

            def cold():
                nonlocal model
                model = LatencyPercentileModel(params)
                return model.sla_percentile(sla)

            query("cold", cold)
            query("warm", lambda: LatencyPercentileModel(params).sla_percentile(sla))
            if i % WHATIF_QUANTILE_EVERY == 0:
                query("quantile", lambda: model.latency_quantile(WHATIF_QUANTILE))
        for params, rows, sla in inp["kofn"]:
            query(
                "kofn",
                lambda: RedundantLatencyModel(
                    params, rows, strategy="kofn", fanout=KOFN_FANOUT
                ).sla_percentile(sla),
            )
        repair_warnings = sum(issubclass(w.category, RepairWarning) for w in caught)
    return {
        "latencies_s": lat,
        "answers": answers,
        "nonconverged": nonconverged,
        "repair_warnings": repair_warnings,
    }


def check_whatif(inp: dict, raw: dict) -> BodyResult:
    from repro.distributions import evalcache
    from repro.model import LatencyPercentileModel

    answers = raw["answers"]
    cold = answers["cold"]
    warm_equal = all(same_float(a, b) for a, b in zip(cold, answers["warm"]))
    with evalcache.bypass():
        bypass_equal = all(
            same_float(LatencyPercentileModel(params).sla_percentile(sla), cold[i])
            for i, (params, sla) in enumerate(inp["sets"])
            if i % WHATIF_BYPASS_EVERY == 0
        )
    flat = [x for kind in ("cold", "quantile", "kofn") for x in answers[kind]]
    n_queries = sum(len(v) for v in answers.values())
    return BodyResult(
        work=n_queries,
        attempted=n_queries,
        failed=sum(not math.isfinite(x) for v in answers.values() for x in v),
        digest=digest(flat),
        checks={"warm_equals_cold": warm_equal, "bypass_agrees": bypass_equal},
        extra={
            "latencies_s": raw["latencies_s"],
            "query_nonconverged_frac": raw["nonconverged"] / n_queries,
            "repair_warnings": raw["repair_warnings"],
        },
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

DRAWS = {"sweep_s1s16": draw_sweep, "fleet_mixed": draw_fleet, "model_whatif": draw_whatif}
SETUPS = {"sweep_s1s16": setup_sweep, "fleet_mixed": setup_fleet, "model_whatif": setup_whatif}
BODIES = {
    "sweep_s1s16": run_sweep_body,
    "fleet_mixed": run_fleet_body,
    "model_whatif": run_whatif_body,
}
CHECKS = {"sweep_s1s16": check_sweep, "fleet_mixed": check_fleet, "model_whatif": check_whatif}
