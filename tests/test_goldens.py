"""Golden-file regression tests for the paper's headline artifacts.

Table I, Table II and Fig 5 are re-derived at a fixed seed on a
scaled-down grid and compared field-by-field against JSON goldens at an
absolute tolerance of 1e-9 -- tight enough that any change to the
model composition, the simulator's event ordering, the calibration
pipeline or the RNG stream layout shows up as a diff, while still
tolerating libm-level jitter across platforms.

After an *intentional* behaviour change, regenerate with::

    pytest tests/test_goldens.py --update-goldens

and commit the resulting diff under ``tests/goldens/`` -- the diff is
the review artifact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import pytest

from repro.experiments import (
    build_table1,
    build_table2,
    calibrate,
    run_fig5,
    run_kofn_sweep,
    run_sweeps,
    scenario_s1,
    scenario_s16,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"
SEED = 7
ATOL = 1e-9


def _small(scenario, rates):
    return dataclasses.replace(
        scenario,
        n_objects=15_000,
        warm_accesses=40_000,
        rates=rates,
        window_duration=10.0,
        settle_duration=2.0,
    )


@pytest.fixture(scope="module")
def sweeps():
    scenarios = {
        "S1": _small(scenario_s1(), (40.0, 100.0, 160.0)),
        "S16": _small(scenario_s16(), (60.0, 140.0, 220.0)),
    }
    calibrations = {
        key: calibrate(s, disk_objects=800, parse_requests=50, seed=3)
        for key, s in scenarios.items()
    }
    return run_sweeps(scenarios, calibrations=calibrations, seed=SEED)


# ----------------------------------------------------------------------
# golden plumbing
# ----------------------------------------------------------------------


def _sanitize(value):
    """JSON-encodable mirror of a result doc; non-finite floats become
    tagged strings so they compare exactly (NaN != NaN otherwise)."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return f"non-finite:{value!r}"
    return value


def _assert_matches(doc, golden, path: str = "$") -> None:
    if isinstance(golden, dict):
        assert isinstance(doc, dict) and sorted(doc) == sorted(golden), path
        for k in golden:
            _assert_matches(doc[k], golden[k], f"{path}.{k}")
    elif isinstance(golden, list):
        assert isinstance(doc, list) and len(doc) == len(golden), path
        for i, (d, g) in enumerate(zip(doc, golden)):
            _assert_matches(d, g, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(doc, (int, float)), path
        assert abs(doc - golden) <= ATOL, (
            f"{path}: {doc!r} deviates from golden {golden!r} by "
            f"{abs(doc - golden):.3e} (> {ATOL})"
        )
    else:
        assert doc == golden, f"{path}: {doc!r} != golden {golden!r}"


def _check_golden(name: str, doc, update: bool) -> None:
    doc = _sanitize(doc)
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"golden {path} missing; run with --update-goldens to create it"
        )
    _assert_matches(doc, json.loads(path.read_text()))


# ----------------------------------------------------------------------
# the goldens
# ----------------------------------------------------------------------


def test_table1_golden(sweeps, update_goldens):
    table = build_table1(sweeps)
    doc = {"rows": [list(row) for row in table.rows]}
    _check_golden("table1.json", doc, update_goldens)


def test_table2_golden(sweeps, update_goldens):
    table = build_table2(sweeps)
    doc = {
        "models": list(table.models),
        "rows": [[scen, sla, errs] for scen, sla, errs in table.rows],
    }
    _check_golden("table2.json", doc, update_goldens)


def test_sweep_series_golden(sweeps, update_goldens):
    """Pin the raw per-point observed/predicted series, not just the
    table aggregates -- a compensating pair of errors would leave the
    means unchanged but shows up here."""
    doc = {}
    for key, sweep in sweeps.items():
        doc[key] = {
            "rates": [p.rate for p in sweep.points],
            "n_requests": [p.n_requests for p in sweep.points],
            "observed": [
                {f"{sla:g}": p.observed[sla] for sla in sweep.slas}
                for p in sweep.points
            ],
            "predicted": [
                {
                    m: {f"{sla:g}": p.predicted[m][sla] for sla in sweep.slas}
                    for m in sweep.models
                }
                for p in sweep.points
            ],
        }
    _check_golden("sweep_series.json", doc, update_goldens)


def test_fig5_golden(update_goldens):
    fig = run_fig5(
        _small(scenario_s1(), (40.0,)), n_objects=800, seed=SEED
    )
    doc = {
        "grid_ms": [float(x) for x in fig.grid_ms],
        "recorded": {k: [float(x) for x in v] for k, v in fig.recorded.items()},
        "fitted": {k: [float(x) for x in v] for k, v in fig.fitted.items()},
        "winners": dict(fig.winners),
        "ks": {k: float(v) for k, v in fig.ks.items()},
    }
    _check_golden("fig5.json", doc, update_goldens)


def test_redundancy_kofn_sweep_golden(update_goldens):
    """Pin the k-of-n sweep (paired strategy/control episodes plus the
    order-statistic predictions) over S1/S16 at k in {1, 2, 3}.  The
    k=1 rows double as a reduction check: treated and control columns
    must already be identical before they ever reach the golden."""
    scenarios = {
        "s1": _small(scenario_s1(), (40.0, 100.0, 160.0)),
        "s16": _small(scenario_s16(), (60.0, 140.0, 220.0)),
    }
    calibrations = {
        key: calibrate(s, disk_objects=800, parse_requests=50, seed=3)
        for key, s in scenarios.items()
    }
    results = run_kofn_sweep(
        workloads=("s1", "s16"),
        fanouts=(1, 2, 3),
        seed=SEED,
        scenarios=scenarios,
        calibrations=calibrations,
    )
    doc = {}
    for (workload, k), result in sorted(results.items()):
        if k == 1:
            assert result.treated.observed_sla == result.control.observed_sla
            assert result.treated.predicted_sla == result.control.predicted_sla
        doc[f"{workload}-k{k}"] = result.to_doc()
    _check_golden("redundancy_kofn.json", doc, update_goldens)


def test_redundancy_pareto_stress_golden(update_goldens):
    """Speculative reads over a Pareto (heavy-tailed) size catalog: the
    tail objects stripe into many chunks, so cancellation and wasted
    work are exercised far from the lognormal comfort zone."""
    import numpy as np

    from repro.distributions.tails import Pareto
    from repro.simulator import Cluster, ClusterConfig
    from repro.workload import ObjectCatalog, OpenLoopDriver, WikipediaTraceGenerator

    rng = np.random.default_rng(SEED)
    sizes = np.maximum(
        Pareto(1.6, 24_576.0, allow_heavy=True).sample(rng, 4_000), 512.0
    ).astype(np.int64)
    popularity = np.full(sizes.shape, 1.0 / sizes.size)
    catalog = ObjectCatalog(sizes=sizes, popularity=popularity)
    cluster = Cluster(
        ClusterConfig(
            cache_bytes_per_server=16 << 20,
            read_strategy="kofn",
            read_fanout=2,
        ),
        catalog.sizes,
        seed=SEED,
    )
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(SEED + 1))
    OpenLoopDriver(cluster).run(gen.constant_rate(40.0, 10.0))
    cluster.drain()
    table = cluster.metrics.requests()
    stats = cluster.metrics.redundant_stats()
    doc = {
        "n_requests": int(cluster.metrics.n_requests),
        "quantiles_ms": {
            f"p{q:g}": float(np.percentile(table.response_latency, q) * 1e3)
            for q in (50, 90, 99)
        },
        "redundant": {
            k: stats[k]
            for k in (
                "strategy",
                "requests",
                "probes",
                "aborted",
                "wasted_chunks",
                "cancel_count",
                "mean_cancel_latency",
            )
        },
        "winners": {str(k): v for k, v in sorted(stats["winners"].items())},
    }
    _check_golden("redundancy_pareto.json", doc, update_goldens)
