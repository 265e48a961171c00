"""Performance regression harness.

Times the fixed S1 + S16 benchmark sweep serially and with a worker
pool, checks the two runs produce bit-identical ``SweepResult``s, and
times three engine micro-kernels:

* ``grid_cdf``      -- ``GridPMF.cdf`` with the cached cumulative vs a
  per-call ``np.cumsum`` (the pre-optimisation behaviour);
* ``convolve_chain``-- rFFT ``convolve_many`` vs the pairwise
  ``np.convolve`` chain it replaced;
* ``eval_cache``    -- repeated CDF inversion of a value-identical
  latency transform with the evaluation cache cold vs warm;
* ``metrics_store`` -- exact per-request row list vs the streaming
  :class:`~repro.obs.hist.LatencyHistogram` store (wall time, resident
  bytes, p99 agreement);
* ``trace_overhead``-- one small cluster episode with tracing off vs
  on (off must stay within noise of the pre-trace-layer cost; the
  hooks are single ``is not None`` checks);
* ``sim_dispatch``  -- the typed-opcode event loop vs the legacy
  dynamic-call path (opcode 0) on a self-rescheduling event chain;
* ``laplace_batch`` -- repeated evaluation of an Equation-3 style
  mixture through the node-sharing pipeline (memoised ``cache_token``,
  interned ``s`` keys) vs the per-call tree walk it replaced;
* ``diagnostics_overhead`` -- the quick S1 bench sweep with the model
  diagnostics off vs on (off must stay within noise of the
  pre-diagnostics cost -- the hot path only reads one module global --
  and on must stay under 10% end to end), plus a model-only inversion
  micro-measure that isolates the per-call price of the self/cross
  checks;
* ``redundancy``    -- one small cluster episode under single dispatch
  vs speculative ``kofn@2`` (the probe/cancel machinery's end-to-end
  cost), a ``kofn@1`` run asserted bit-identical to single dispatch
  (the reduction guarantee, checked on every perf run), and an
  order-statistic micro-measure timing the Poisson-binomial DP and the
  iid ``betainc`` closed form on a shared evaluation grid;
* ``dispatch``    -- one small cluster episode under the default random
  replica choice vs ``power_of_d`` (the per-read load-scan cost), with
  the ``dispatch_policy="random"`` state asserted bit-identical to the
  default config on every run (the policy layer must not tax or
  perturb the default path);
* ``fleet``         -- a fleet-scale episode (full: 16 clusters x 4
  devices = 64 devices under ~1M requests; quick: 4 clusters under
  ~50k) run serially and sharded over a process pool
  (:func:`repro.experiments.fleet.run_fleet`), asserting the merged
  metric state is bit-identical, plus an in-run micro-measure: the
  drain of a 200k-event ``schedule_runs`` lane.

On a single-core host the parallel sweep repetition is skipped (a
process pool cannot beat serial there; the old <1.0 "speedup" row read
as a regression) and the JSON records ``"parallel": "skipped (1 core)"``.

Results go to ``BENCH_perf.json`` at the repository root (override with
``--out``).  ``--check BASELINE`` compares against a committed baseline
and exits non-zero on a >2x wall-time regression in any tracked metric;
``--quick`` shrinks the sweep for smoke runs.

Run as::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--jobs 4] [--quick]
    PYTHONPATH=src python benchmarks/perf/run_perf.py --quick --check BENCH_perf.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.distributions import GridPMF, evalcache  # noqa: E402
from repro.distributions.grid import convolve_many  # noqa: E402
from repro.experiments import (  # noqa: E402
    calibrate,
    run_sweeps,
    scenario_s1,
    scenario_s16,
)
from repro.laplace import invert_cdf  # noqa: E402
from repro.queueing import MG1Queue  # noqa: E402

#: Fixed benchmark rate grids (mirrors ``benchmarks/conftest.py``).
BENCH_RATES = {
    "S1": (30.0, 70.0, 110.0, 150.0, 190.0),
    "S16": (40.0, 94.0, 148.0, 202.0, 256.0),
}
QUICK_RATES = {"S1": (30.0, 110.0), "S16": (40.0, 148.0)}

#: Serial wall time of the full (non-quick) benchmark sweep measured on
#: the pre-optimisation tree (growth seed, commit 2c0fb6c) on the
#: single-core container of that era.  HISTORICAL: later baselines were
#: produced on different hardware, so the ratio no longer measures this
#: tree's progress -- it is kept (suffixed ``_historical`` in the JSON)
#: only so old baselines remain interpretable.  Live regression tracking
#: is the ``--check`` comparison against the committed baseline.
SEED_SERIAL_S_HISTORICAL = 13.25

#: Timing repetitions per sweep configuration; wall time is best-of-N
#: (shared CI boxes jitter by ~1s run to run, and the minimum is the
#: stablest estimator of the code's actual cost).
TIMING_REPS = 3

#: Metrics ``--check`` guards.  Sweep health is tracked as throughput
#: (events simulated per wall second) so a ``--quick`` run remains
#: comparable against a committed full-sweep baseline; kernel metrics
#: run identical work in both modes and are tracked as wall time.
CHECKED_METRICS = (
    (("sweep", "events_per_sec_serial"), "higher"),
    (("sweep", "events_per_sec_parallel"), "higher"),
    (("kernels", "grid_cdf", "cached_s"), "lower"),
    (("kernels", "convolve_chain", "fft_s"), "lower"),
    (("kernels", "eval_cache", "warm_s"), "lower"),
    (("kernels", "metrics_store", "hist_s"), "lower"),
    (("kernels", "trace_overhead", "off_s"), "lower"),
    (("kernels", "sim_dispatch", "typed_s"), "lower"),
    (("kernels", "laplace_batch", "batch_s"), "lower"),
    (("kernels", "diagnostics_overhead", "off_s"), "lower"),
    (("kernels", "redundancy", "single_s"), "lower"),
    (("kernels", "redundancy", "orderstat_s"), "lower"),
    (("kernels", "dispatch", "random_s"), "lower"),
    (("kernels", "fleet", "events_per_sec_serial"), "higher"),
    (("kernels", "fleet", "lane_s"), "lower"),
    (("kernels", "trace_sampling", "off_s"), "lower"),
    (("kernels", "telemetry_overhead", "off_s"), "lower"),
)


def bench_scenarios(quick: bool):
    rates = QUICK_RATES if quick else BENCH_RATES
    return {
        "S1": dataclasses.replace(scenario_s1(), rates=rates["S1"]),
        "S16": dataclasses.replace(scenario_s16(), rates=rates["S16"]),
    }


def points_equal(a, b) -> bool:
    """Field-wise SweepPoint equality treating NaN == NaN as equal."""

    def num_eq(x, y):
        x, y = float(x), float(y)
        return (math.isnan(x) and math.isnan(y)) or x == y

    if a.rate != b.rate or a.n_requests != b.n_requests:
        return False
    if not num_eq(a.max_utilization, b.max_utilization):
        return False
    if a.observed.keys() != b.observed.keys():
        return False
    if not all(num_eq(a.observed[k], b.observed[k]) for k in a.observed):
        return False
    if a.predicted.keys() != b.predicted.keys():
        return False
    for model in a.predicted:
        pa, pb = a.predicted[model], b.predicted[model]
        if pa.keys() != pb.keys():
            return False
        if not all(num_eq(pa[k], pb[k]) for k in pa):
            return False
    return True


def sweeps_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for name in a:
        ra, rb = a[name], b[name]
        if (ra.scenario, ra.slas, ra.models) != (rb.scenario, rb.slas, rb.models):
            return False
        if len(ra.points) != len(rb.points):
            return False
        if not all(points_equal(pa, pb) for pa, pb in zip(ra.points, rb.points)):
            return False
    return True


def bench_sweep(jobs: int, quick: bool) -> dict:
    scenarios = bench_scenarios(quick)
    calibrations = {name: calibrate(sc, seed=0) for name, sc in scenarios.items()}

    def timed(run_jobs: int):
        best, result = math.inf, None
        for _ in range(TIMING_REPS):
            t0 = time.perf_counter()
            result = run_sweeps(scenarios, calibrations=calibrations, seed=0, jobs=run_jobs)
            best = min(best, time.perf_counter() - t0)
        return best, result

    serial_s, serial = timed(1)
    events = sum(p.n_requests for r in serial.values() for p in r.points)
    row = {
        "jobs": jobs,
        "quick": quick,
        "rate_points": sum(len(sc.rates) for sc in scenarios.values()),
        "events": events,
        "timing_reps": TIMING_REPS,
        "serial_s": round(serial_s, 3),
        "events_per_sec_serial": round(events / serial_s, 1),
    }

    if (os.cpu_count() or 1) <= 1:
        # A process pool cannot beat serial on one core (measured 0.957x
        # on the CI container); the sub-1.0 "speedup" row read as a perf
        # regression when it was really a hardware fact.  The serial-vs-
        # parallel bit-identity property is covered by the determinism
        # test suite, which forces a pool regardless of core count.
        row["parallel"] = "skipped (1 core)"
        row["bit_identical"] = True
    else:
        parallel_s, parallel = timed(jobs)
        row["parallel_s"] = round(parallel_s, 3)
        row["speedup"] = round(serial_s / parallel_s, 3) if parallel_s > 0 else None
        row["events_per_sec_parallel"] = round(events / parallel_s, 1)
        row["bit_identical"] = sweeps_equal(serial, parallel)
    if not quick:
        # Historical reference only -- see SEED_SERIAL_S_HISTORICAL.
        row["seed_serial_s_historical"] = SEED_SERIAL_S_HISTORICAL
        row["speedup_vs_seed_serial_historical"] = round(
            SEED_SERIAL_S_HISTORICAL / serial_s, 3
        )
    return row


def bench_grid_cdf(reps: int = 400) -> dict:
    rng = np.random.default_rng(7)
    probs = rng.random(16384)
    probs /= probs.sum()
    pmf = GridPMF(1e-4, probs)
    t = np.linspace(0.0, pmf.horizon, 64)

    # Pre-optimisation behaviour: cumulative sum rebuilt on every call.
    def cdf_uncached(query):
        cum = np.cumsum(pmf.probs)
        idx = np.minimum(
            np.floor(np.asarray(query) / pmf.dt).astype(int), pmf.n - 1
        )
        return np.where(np.asarray(query) < 0.0, 0.0, cum[idx])

    t0 = time.perf_counter()
    for _ in range(reps):
        cdf_uncached(t)
    uncached_s = time.perf_counter() - t0

    pmf.cdf(t)  # prime the lazy cumulative
    t0 = time.perf_counter()
    for _ in range(reps):
        pmf.cdf(t)
    cached_s = time.perf_counter() - t0
    return {
        "reps": reps,
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(uncached_s / cached_s, 2) if cached_s > 0 else None,
    }


def bench_convolve_chain(n_pmfs: int = 12, n: int = 4096, reps: int = 10) -> dict:
    rng = np.random.default_rng(11)
    pmfs = []
    for _ in range(n_pmfs):
        probs = rng.random(n)
        probs /= probs.sum() * 1.02  # leave some tail mass, like real grids
        pmfs.append(GridPMF(1e-4, probs))

    def pairwise():
        acc = pmfs[0]
        for other in pmfs[1:]:
            acc = acc.convolve(other, n=n)
        return acc

    t0 = time.perf_counter()
    for _ in range(reps):
        pairwise()
    pairwise_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(reps):
        convolve_many(pmfs, n=n)
    fft_s = time.perf_counter() - t0
    return {
        "n_pmfs": n_pmfs,
        "grid_n": n,
        "reps": reps,
        "pairwise_s": round(pairwise_s, 4),
        "fft_s": round(fft_s, 4),
        "speedup": round(pairwise_s / fft_s, 2) if fft_s > 0 else None,
    }


def bench_eval_cache(reps: int = 60) -> dict:
    from repro.distributions import Gamma

    service = Gamma(shape=2.3, rate=180.0)
    wait = MG1Queue(arrival_rate=55.0, service=service).waiting_time()
    t = np.linspace(1e-3, 0.2, 48)

    evalcache.clear()
    t0 = time.perf_counter()
    for _ in range(reps):
        evalcache.clear()
        invert_cdf(wait, t)
    cold_s = time.perf_counter() - t0

    evalcache.clear()
    invert_cdf(wait, t)  # warm the inversion memo
    t0 = time.perf_counter()
    for _ in range(reps):
        invert_cdf(wait, t)
    warm_s = time.perf_counter() - t0
    evalcache.clear()
    return {
        "reps": reps,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
    }


def bench_metrics_store(n: int = 200_000) -> dict:
    """Exact row list vs streaming histogram as the latency accumulator.

    The exact store appends one python float per request and reduces
    with ``np.quantile`` at the end; the histogram store pays a log10
    per record but holds a fixed few-KB bucket array no matter how many
    requests complete.  Reports both costs plus the p99 disagreement,
    which must stay inside the histogram's bucket-width bound.
    """
    import sys as _sys

    from repro.obs.hist import LatencyHistogram

    rng = np.random.default_rng(13)
    values = rng.gamma(2.0, 0.01, size=n).tolist()

    t0 = time.perf_counter()
    rows: list[float] = []
    append = rows.append
    for v in values:
        append(v)
    exact_p99 = float(np.quantile(np.asarray(rows), 0.99, method="inverted_cdf"))
    list_s = time.perf_counter() - t0
    # list slots + one float object per row (CPython: 8 + ~24 bytes).
    list_bytes = _sys.getsizeof(rows) + n * _sys.getsizeof(values[0])

    t0 = time.perf_counter()
    hist = LatencyHistogram()
    record = hist.record
    for v in values:
        record(v)
    hist_p99 = hist.quantile(0.99)
    hist_s = time.perf_counter() - t0
    hist_bytes = hist._counts.nbytes

    return {
        "n": n,
        "list_s": round(list_s, 4),
        "hist_s": round(hist_s, 4),
        "list_bytes": list_bytes,
        "hist_bytes": hist_bytes,
        "memory_ratio": round(list_bytes / hist_bytes, 1),
        "p99_rel_delta": round(abs(hist_p99 - exact_p99) / exact_p99, 5),
        "p99_bound": round(hist.relative_error_bound, 5),
    }


def bench_trace_overhead(reps: int = 3) -> dict:
    """One small cluster episode with tracing off vs on.

    The "off" time is the number the ≤5% acceptance bound guards: every
    hook site is a single ``is not None`` check, so the trace layer must
    cost nothing when no tracer is installed.  The "on" time bounds what
    a traced diagnostic run pays.
    """
    from repro.obs import Tracer
    from repro.simulator import Cluster, ClusterConfig
    from repro.workload import ObjectCatalog
    from repro.workload.ssbench import OpenLoopDriver
    from repro.workload.wikipedia import WikipediaTraceGenerator

    catalog = ObjectCatalog.synthetic(
        5_000, mean_size=16_384.0, size_sigma=1.0, zipf_s=0.9,
        rng=np.random.default_rng(7),
    )

    def episode(tracer):
        root = np.random.SeedSequence(42)
        cluster_seed, trace_seed = root.spawn(2)
        cluster = Cluster(
            ClusterConfig(), catalog.sizes, seed=cluster_seed, tracer=tracer
        )
        gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
        cluster.warm_caches(gen.warmup_accesses(5_000))
        driver = OpenLoopDriver(cluster)
        driver.run(gen.constant_rate(120.0, 8.0))
        cluster.run_until(cluster.sim.now + 5.0)
        return cluster.metrics.n_requests

    def timed(make_tracer):
        best, n = math.inf, 0
        for _ in range(reps):
            tracer = make_tracer()
            t0 = time.perf_counter()
            n = episode(tracer)
            best = min(best, time.perf_counter() - t0)
        return best, n

    off_s, n_requests = timed(lambda: None)
    on_s, _ = timed(Tracer)
    return {
        "reps": reps,
        "n_requests": n_requests,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "on_overhead": round(on_s / off_s - 1.0, 4) if off_s > 0 else None,
    }


def bench_sim_dispatch(n_events: int = 200_000, reps: int = 3) -> dict:
    """Typed-opcode dispatch vs the legacy dynamic-call event loop.

    A self-rescheduling event chain isolates the per-event cost the
    opcode table removes: the legacy path (opcode 0) packs an ``args``
    tuple at every schedule site and unpacks it through ``fn(*args)``;
    the typed path indexes the handler table and passes the two payload
    slots straight through.  Both run the same fused heapreplace loop,
    so the ratio is dispatch overhead only.
    """
    from repro.simulator.core import Simulator

    def run_legacy() -> float:
        sim = Simulator()
        state = [n_events]

        def tick(step, payload):
            state[0] -= 1
            if state[0] > 0:
                sim.schedule(step, tick, step, payload)

        sim.schedule(0.0, tick, 1e-6, None)
        t0 = time.perf_counter()
        sim.run_until_idle()
        return time.perf_counter() - t0

    def run_typed() -> float:
        sim = Simulator()
        state = [n_events]

        def tick(a, b):
            state[0] -= 1
            if state[0] > 0:
                sim.schedule_op(a, op, a, b)

        op = sim.register(tick)
        sim.schedule_op(0.0, op, 1e-6, None)
        t0 = time.perf_counter()
        sim.run_until_idle()
        return time.perf_counter() - t0

    legacy_s = min(run_legacy() for _ in range(reps))
    typed_s = min(run_typed() for _ in range(reps))
    return {
        "n_events": n_events,
        "reps": reps,
        "legacy_s": round(legacy_s, 4),
        "typed_s": round(typed_s, 4),
        "events_per_sec_typed": round(n_events / typed_s, 1),
        "speedup": round(legacy_s / typed_s, 2) if typed_s > 0 else None,
    }


def bench_laplace_batch(n_devices: int = 16, reps: int = 200) -> dict:
    """Node-sharing Laplace pipeline vs the per-call composite tree walk.

    Builds an Equation-3 style mixture (one convolution of zero-inflated
    queueing transforms per device) and evaluates it repeatedly at one
    euler-style quadrature matrix with the leaf cache warm -- the hit
    regime ``cosmodel reproduce`` lives in, where every model family and
    SLA re-evaluates value-identical sub-composites.

    * ``walk``:  the pre-overhaul hit path, reproduced exactly by
      resetting each composite's ``cache_token`` memo before every call
      (the old code rebuilt the token tree per call) and passing a fresh
      copy of the ``s`` matrix (the old key re-serialised ``s`` per
      call).
    * ``batch``: memoised tokens plus :func:`evalcache.s_context` key
      interning, as wired through ``invert_cdf``.

    Both modes return byte-identical values; the ratio is pure keying
    and tree-walk overhead, which is why it is stable on noisy hosts.
    """
    from repro.distributions import Gamma, evalcache
    from repro.distributions.composite import (
        Convolution,
        Mixture,
        PoissonCompound,
        Scaled,
        Shifted,
        ZeroInflated,
        convolve,
        zero_inflate,
    )

    def build_mixture():
        devices = []
        for j in range(n_devices):
            disk = Gamma(shape=2.0 + 0.01 * j, rate=150.0 + j)
            wait = MG1Queue(arrival_rate=40.0 + j, service=disk).waiting_time()
            op = convolve(Shifted(wait, 1e-4), disk)
            index = zero_inflate(op, 0.3)
            meta = zero_inflate(Scaled(op, 1.1), 0.2)
            data = zero_inflate(convolve(wait, disk), 0.6)
            devices.append(convolve(index, meta, data, PoissonCompound(data, 0.4)))
        return Mixture.rate_weighted(
            devices, np.arange(1, n_devices + 1, dtype=float)
        )

    unary = (ZeroInflated, PoissonCompound, Scaled, Shifted)

    def reset_tokens(dist) -> None:
        if isinstance(dist, (Mixture, Convolution)):
            dist._token = False
            for child in dist.components:
                reset_tokens(child)
        elif isinstance(dist, unary):
            dist._token = False
            reset_tokens(dist.base)

    # Euler-flavoured quadrature matrix: 48 time points x 49 nodes.
    t = np.linspace(1e-3, 0.3, 48)
    nodes = np.arange(49)
    s_matrix = np.ascontiguousarray(
        (18.4 / (2.0 * t))[:, None] + 1j * (np.pi * nodes / t[:, None]),
        dtype=complex,
    )

    mixture = build_mixture()
    evalcache.clear()
    with evalcache.s_context(s_matrix) as s:
        evalcache.laplace_eval(mixture, s)  # warm every node's entry

    t0 = time.perf_counter()
    for _ in range(reps):
        reset_tokens(mixture)
        evalcache.laplace_eval(mixture, s_matrix.copy())
    walk_s = time.perf_counter() - t0

    with evalcache.s_context(s_matrix) as s:
        t0 = time.perf_counter()
        for _ in range(reps):
            evalcache.laplace_eval(mixture, s)
        batch_s = time.perf_counter() - t0
    entries = evalcache.stats()["laplace_entries"]
    evalcache.clear()
    return {
        "n_devices": n_devices,
        "s_shape": list(s_matrix.shape),
        "reps": reps,
        "tree_entries": entries,
        "walk_s": round(walk_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(walk_s / batch_s, 2) if batch_s > 0 else None,
    }


def bench_diagnostics_overhead(reps: int = TIMING_REPS) -> dict:
    """Bench sweep with the model-diagnostics session off vs on.

    Runs the quick-rates S1 bench sweep three ways:

    * ``off``: ``diagnose=False`` -- the shipped default.  The only
      cost the diagnostics layer adds to this path is one module-global
      read per ``invert_cdf`` call, so this number must stay within
      noise of the pre-diagnostics sweep cost (it is the metric the
      regression check guards).
    * ``on``:  ``diagnose=True`` -- every inversion additionally pays a
      half-term self-check and a talbot cross-check on an 8-point
      subsample (under ``evalcache.bypass()``, so the caches the run
      sees are untouched).  The sweep is simulation-dominated, so the
      acceptance target is < 10% overhead end to end.
    * both runs must produce bit-identical ``SweepPoint`` results
      (``bit_identical``) -- diagnostics only observe.

    ``inversion_on_overhead`` additionally isolates the model-only cost
    (repeated CDF inversions of Equation-3-shaped composites, caches
    cleared per rep) so the per-inversion price of the extras stays
    visible even though the sweep amortises it.
    """
    from repro.distributions import Gamma, zero_inflate
    from repro.distributions.composite import convolve
    from repro.obs.diagnostics import DiagnosticsSession

    scenario = dataclasses.replace(scenario_s1(), rates=QUICK_RATES["S1"])
    cal = {"S1": calibrate(scenario, seed=0)}

    def one_sweep(diagnose: bool):
        t0 = time.perf_counter()
        result = run_sweeps(
            {"S1": scenario}, calibrations=cal, seed=0, jobs=1,
            diagnose=diagnose,
        )
        return time.perf_counter() - t0, result

    # Interleave the off/on repetitions (off-on, on-off, ...) so slow
    # drift on a shared host biases neither mode; report best-of-reps.
    best = {False: math.inf, True: math.inf}
    sweeps = {}
    for i in range(reps):
        order = (False, True) if i % 2 == 0 else (True, False)
        for diagnose in order:
            elapsed, result = one_sweep(diagnose)
            best[diagnose] = min(best[diagnose], elapsed)
            sweeps[diagnose] = result
    off_s, on_s = best[False], best[True]
    off_sweep, on_sweep = sweeps[False], sweeps[True]
    identical = sweeps_equal(off_sweep, on_sweep)
    diag_summaries = [
        p.diagnostics for r in on_sweep.values() for p in r.points if p.diagnostics
    ]

    # Model-only micro-measure: inversion wall time off vs on, with the
    # eval caches cleared per rep so every call pays the full node sums.
    dists = []
    for j in range(8):
        disk = Gamma(shape=2.0 + 0.05 * j, rate=180.0 + 3.0 * j)
        wait = MG1Queue(arrival_rate=30.0 + j, service=disk).waiting_time()
        dists.append(zero_inflate(convolve(wait, disk), 0.4 + 0.02 * j))
    t = np.linspace(1e-3, 0.4, 256)

    def timed_inversions(diagnose: bool) -> float:
        best = math.inf
        for _ in range(5):
            evalcache.clear()
            t0 = time.perf_counter()
            if diagnose:
                with DiagnosticsSession():
                    for d in dists:
                        invert_cdf(d, t)
            else:
                for d in dists:
                    invert_cdf(d, t)
            best = min(best, time.perf_counter() - t0)
        return best

    inv_off_s = timed_inversions(False)
    inv_on_s = timed_inversions(True)
    evalcache.clear()

    return {
        "rate_points": len(scenario.rates),
        "reps": reps,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "on_overhead": round(on_s / off_s - 1.0, 4) if off_s > 0 else None,
        "bit_identical": identical,
        "n_calls": sum(d["n_calls"] for d in diag_summaries),
        "n_flagged": sum(d["n_flagged"] for d in diag_summaries),
        "max_self_error": max(d["max_self_error"] for d in diag_summaries),
        "max_cross_disagreement": max(
            d["max_cross_disagreement"] for d in diag_summaries
        ),
        "inversion_off_s": round(inv_off_s, 4),
        "inversion_on_s": round(inv_on_s, 4),
        "inversion_on_overhead": (
            round(inv_on_s / inv_off_s - 1.0, 4) if inv_off_s > 0 else None
        ),
    }


def bench_lane_drain(n_events: int = 200_000, reps: int = 3) -> dict:
    """Sorted-run drain through a kernel event lane.

    Schedules a 200k-event pre-sorted arrival array as one
    ``schedule_runs`` lane through a noop typed handler and drains it;
    timing covers schedule + drain.
    """
    from repro.simulator.core import Simulator

    best = math.inf
    times = np.arange(n_events) * 1e-6
    ids = np.arange(n_events)
    for _ in range(reps):
        sim = Simulator()
        sink = [0]

        def noop(a, b):
            sink[0] += 1

        op = sim.register(noop)
        t0 = time.perf_counter()
        sim.schedule_runs(times, op, ids)
        sim.run_until_idle()
        best = min(best, time.perf_counter() - t0)
        assert sink[0] == n_events
    return {"n_events": n_events, "reps": reps, "lane_s": round(best, 4)}


def bench_redundancy(reps: int = 3) -> dict:
    """Redundant dispatch episode cost + order-statistic micro-measure.

    * ``single_s`` vs ``kofn_s`` -- the same small open-loop episode
      under single dispatch and under speculative ``kofn@2``.  The
      ratio is the end-to-end price of the probe/cancel machinery at
      doubled read fan-out (``single_s`` is the tracked metric: the
      dispatch refactor must not tax the default path).
    * ``k1_bit_identical`` -- a ``kofn@1`` episode's metric state must
      equal the single-dispatch state bit for bit; every perf run
      re-checks the reduction guarantee.
    * ``orderstat_s`` / ``iid_s`` -- CDF evaluation of the k-th order
      statistic over a replica row on a 4096-point grid: the
      heterogeneous Poisson-binomial DP vs the ``betainc`` closed form
      the iid collapse buys.
    """
    from repro.distributions import Gamma
    from repro.distributions.orderstats import KofN, OrderStatistic
    from repro.simulator import Cluster, ClusterConfig
    from repro.workload import ObjectCatalog
    from repro.workload.ssbench import OpenLoopDriver
    from repro.workload.wikipedia import WikipediaTraceGenerator

    catalog = ObjectCatalog.synthetic(
        5_000, mean_size=16_384.0, size_sigma=1.0, zipf_s=0.9,
        rng=np.random.default_rng(7),
    )

    def episode(config: ClusterConfig) -> Cluster:
        root = np.random.SeedSequence(42)
        cluster_seed, trace_seed = root.spawn(2)
        cluster = Cluster(config, catalog.sizes, seed=cluster_seed)
        gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
        cluster.warm_caches(gen.warmup_accesses(5_000))
        OpenLoopDriver(cluster).run(gen.constant_rate(120.0, 8.0))
        cluster.run_until(cluster.sim.now + 5.0)
        return cluster

    def timed(config: ClusterConfig):
        best, cluster = math.inf, None
        for _ in range(reps):
            t0 = time.perf_counter()
            cluster = episode(config)
            best = min(best, time.perf_counter() - t0)
        return best, cluster

    single_s, single = timed(ClusterConfig())
    kofn_s, kofn = timed(ClusterConfig(read_strategy="kofn", read_fanout=2))
    _, k1 = timed(ClusterConfig(read_strategy="kofn", read_fanout=1))
    stats = kofn.metrics.redundant_stats()

    # Order-statistic micro-measure: majority rank over a 3-replica row.
    t = np.linspace(1e-4, 0.5, 4096)
    hetero = [Gamma(shape=2.0 + 0.1 * j, rate=150.0 + 5.0 * j) for j in range(3)]
    ordstat = OrderStatistic(hetero, k=2)
    iid = KofN(hetero[0], k=2, n=3)
    micro_reps = 50
    ordstat.cdf(t)
    t0 = time.perf_counter()
    for _ in range(micro_reps):
        ordstat.cdf(t)
    orderstat_s = time.perf_counter() - t0
    iid.cdf(t)
    t0 = time.perf_counter()
    for _ in range(micro_reps):
        iid.cdf(t)
    iid_s = time.perf_counter() - t0

    return {
        "reps": reps,
        "n_requests": single.metrics.n_requests,
        "single_s": round(single_s, 4),
        "kofn_s": round(kofn_s, 4),
        "kofn_overhead": round(kofn_s / single_s - 1.0, 4) if single_s > 0 else None,
        "kofn_probes": stats["probes"],
        "kofn_cancelled": stats["cancel_count"],
        "kofn_wasted_chunks": stats["wasted_chunks"],
        "k1_bit_identical": k1.metrics.state() == single.metrics.state(),
        "grid_n": t.size,
        "micro_reps": micro_reps,
        "orderstat_s": round(orderstat_s, 4),
        "iid_s": round(iid_s, 4),
        "iid_speedup": round(orderstat_s / iid_s, 2) if iid_s > 0 else None,
    }


def bench_dispatch(reps: int = 3) -> dict:
    """Dispatch-policy episode cost + the random-identity guarantee.

    * ``random_s`` vs ``power_of_d_s`` -- the same small open-loop
      episode under the default random replica choice and under
      power-of-2-choices.  ``random_s`` is the tracked metric: the
      policy layer must not tax the default path (random = no policy
      object, only an ``is not None`` check and the dispatch-count
      sink on the hot path).  The power-of-d ratio prices the per-read
      load scan.
    * ``random_bit_identical`` -- a ``dispatch_policy="random"``
      episode's metric state must equal the default-config state bit
      for bit; every perf run re-checks the identity guarantee
      (docs/DISPATCH.md).
    """
    from repro.simulator import Cluster, ClusterConfig
    from repro.workload import ObjectCatalog
    from repro.workload.ssbench import OpenLoopDriver
    from repro.workload.wikipedia import WikipediaTraceGenerator

    catalog = ObjectCatalog.synthetic(
        5_000, mean_size=16_384.0, size_sigma=1.0, zipf_s=0.9,
        rng=np.random.default_rng(7),
    )

    def episode(config: ClusterConfig) -> Cluster:
        root = np.random.SeedSequence(42)
        cluster_seed, trace_seed = root.spawn(2)
        cluster = Cluster(config, catalog.sizes, seed=cluster_seed)
        gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(trace_seed))
        cluster.warm_caches(gen.warmup_accesses(5_000))
        OpenLoopDriver(cluster).run(gen.constant_rate(120.0, 8.0))
        cluster.run_until(cluster.sim.now + 5.0)
        return cluster

    def timed(config: ClusterConfig):
        best, cluster = math.inf, None
        for _ in range(reps):
            t0 = time.perf_counter()
            cluster = episode(config)
            best = min(best, time.perf_counter() - t0)
        return best, cluster

    random_s, default = timed(ClusterConfig())
    _, random_pol = timed(ClusterConfig(dispatch_policy="random"))
    pod_s, pod = timed(ClusterConfig(dispatch_policy="power_of_d"))
    stats = pod.metrics.dispatch_stats(pod.config.n_devices)

    return {
        "reps": reps,
        "n_requests": default.metrics.n_requests,
        "random_s": round(random_s, 4),
        "power_of_d_s": round(pod_s, 4),
        "power_of_d_overhead": (
            round(pod_s / random_s - 1.0, 4) if random_s > 0 else None
        ),
        "power_of_d_dispatches": stats["dispatches"],
        "power_of_d_imbalance": round(stats["imbalance"], 4),
        "random_bit_identical": (
            random_pol.metrics.state() == default.metrics.state()
        ),
    }


def bench_fleet(jobs: int = 4, quick: bool = False) -> dict:
    """Fleet-scale sharded episode + sorted-run lane micro-measure.

    Times one open-loop fleet episode
    (:func:`repro.experiments.fleet.run_fleet`) serially and sharded
    over a process pool, asserting the merged
    :class:`~repro.simulator.metrics.MetricsRecorder` states are
    bit-identical.  On a single-core host the pooled repetition is
    skipped (same hardware fact as the sweep); the sharded run still
    executes inline so the identity assertion always holds.  The lane
    micro-measure (see :func:`bench_lane_drain`) rides along.
    """
    from repro.experiments.fleet import FleetScenario, run_fleet

    if quick:
        scenario = FleetScenario(
            n_clusters=4, objects_per_cluster=1_000, rate=2_500.0,
            duration=20.0, warm_accesses=10_000,
        )
    else:
        # 16 clusters x 4 devices = 64 devices, ~1M requests.
        scenario = FleetScenario(
            n_clusters=16, objects_per_cluster=2_000, rate=20_000.0,
            duration=50.0, warm_accesses=160_000,
        )
    n_shards = min(4, scenario.n_clusters)
    multi_core = (os.cpu_count() or 1) > 1

    t0 = time.perf_counter()
    serial = run_fleet(scenario, seed=0)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = run_fleet(
        scenario, seed=0, shards=n_shards, jobs=jobs if multi_core else 1
    )
    sharded_s = time.perf_counter() - t0

    row = {
        "quick": quick,
        "n_clusters": scenario.n_clusters,
        "n_devices": scenario.n_devices,
        "n_shards": n_shards,
        "n_requests": serial.n_requests,
        "events": serial.events,
        "serial_s": round(serial_s, 3),
        "events_per_sec_serial": round(serial.events / serial_s, 1),
        "bit_identical": serial.state == sharded.state,
    }
    if multi_core:
        row["sharded_s"] = round(sharded_s, 3)
        row["speedup"] = round(serial_s / sharded_s, 3) if sharded_s > 0 else None
        row["events_per_sec_sharded"] = round(serial.events / sharded_s, 1)
    else:
        row["sharded"] = "skipped (1 core); identity checked inline"
    row.update(bench_lane_drain())
    return row


def _telemetry_fleet_scenario():
    from repro.experiments.fleet import FleetScenario

    return FleetScenario(
        n_clusters=2, objects_per_cluster=800, rate=1_500.0,
        duration=6.0, warm_accesses=5_000, write_fraction=0.05,
    )


def bench_trace_sampling(reps: int = 2) -> dict:
    """Deterministic 1% head-sampled tracing on the quick fleet episode.

    Two guarantees are asserted inline, not just timed:

    * **state bit-identity** -- the merged recorder state with the
      sampled tracer installed equals the silent run's, byte for byte;
    * **shard-plan invariance** -- the sampled ``(cluster, rid)`` set
      written by a 1-shard run equals a 2-shard pooled run's.

    ``off_s`` is the guarded metric (sampling must not tax the silent
    path -- the tracer is only consulted inside span hooks, which are
    gated on ``tracer is not None``); ``on_overhead`` bounds the ≤5%
    acceptance criterion for a 1% sampled run.
    """
    import shutil
    import tempfile

    from repro.experiments.fleet import run_fleet
    from repro.obs.telemetry import TelemetryConfig, merge_shard_traces

    scenario = _telemetry_fleet_scenario()
    telem = TelemetryConfig(trace_sample_rate=0.01, trace_seed=5)

    def timed(scn, **kw):
        best, result = math.inf, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = run_fleet(scn, seed=0, **kw)
            best = min(best, time.perf_counter() - t0)
        return best, result

    off_s, off = timed(scenario)
    on_s, on = timed(dataclasses.replace(scenario, telemetry=telem))
    if off.state != on.state:
        raise AssertionError("sampled tracing changed the merged state")

    # Shard-plan invariance of the sampled set.
    def sampled_set(shards, jobs):
        tdir = tempfile.mkdtemp(prefix="cosmodel-sample-")
        try:
            run_fleet(
                dataclasses.replace(
                    scenario,
                    telemetry=dataclasses.replace(telem, trace_dir=tdir),
                ),
                seed=0, shards=shards, jobs=jobs,
            )
            return sorted(
                {
                    (r.get("cluster"), r["rid"])
                    for r in merge_shard_traces(tdir)
                    if "rid" in r
                }
            )
        finally:
            shutil.rmtree(tdir, ignore_errors=True)

    set_serial = sampled_set(None, None)
    set_sharded = sampled_set(2, 2)
    if set_serial != set_sharded:
        raise AssertionError("sampled set is not shard-plan-invariant")

    return {
        "reps": reps,
        "sample_rate": telem.trace_sample_rate,
        "n_requests": off.n_requests,
        "n_sampled": len(set_serial),
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "on_overhead": round(on_s / off_s - 1.0, 4) if off_s > 0 else None,
        "bit_identical": True,
        "shard_invariant": True,
    }


def bench_telemetry_overhead(reps: int = 2) -> dict:
    """Everything on at once: 1% sampling + live bus streaming + the
    kernel time profiler, against the silent quick fleet episode.

    The guarded metric is ``off_s`` (telemetry must cost nothing when
    off -- every hook is ``None``-gated and the profiler only wraps the
    dispatch table once enabled); ``on_overhead`` is the full-telemetry
    price and the merged state is asserted bit-identical inline, which
    pins that streaming snapshots never flush recorder internals
    mid-run.
    """
    import os as _os
    import shutil
    import tempfile

    from repro.experiments.fleet import run_fleet
    from repro.obs.telemetry import TelemetryConfig

    scenario = _telemetry_fleet_scenario()

    def timed(scn, **kw):
        best, result = math.inf, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = run_fleet(scn, seed=0, **kw)
            best = min(best, time.perf_counter() - t0)
        return best, result

    off_s, off = timed(scenario)
    tdir = tempfile.mkdtemp(prefix="cosmodel-telemetry-")
    try:
        telem = TelemetryConfig(
            trace_sample_rate=0.01,
            trace_seed=5,
            bus_path=_os.path.join(tdir, "events.jsonl"),
            stream_interval=0.1,
            profile=True,
        )
        on_s, on = timed(dataclasses.replace(scenario, telemetry=telem))
    finally:
        shutil.rmtree(tdir, ignore_errors=True)
    if off.state != on.state:
        raise AssertionError("full telemetry changed the merged state")
    profiled_events = sum(r["events"] for r in on.profile)
    return {
        "reps": reps,
        "n_requests": off.n_requests,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "on_overhead": round(on_s / off_s - 1.0, 4) if off_s > 0 else None,
        "bit_identical": True,
        "profiled_events": profiled_events,
        "profiled_handlers": len(on.profile),
    }


def dig(tree: dict, path: tuple[str, ...]):
    node = tree
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check_against(baseline_path: pathlib.Path, current: dict, factor: float = 2.0) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for path, direction in CHECKED_METRICS:
        base, now = dig(baseline, path), dig(current, path)
        if base is None or now is None or base <= 0:
            continue
        if direction == "lower" and now > factor * base:
            failures.append(f"{'.'.join(path)}: {now}s vs baseline {base}s (> {factor}x)")
        elif direction == "higher" and now < base / factor:
            failures.append(
                f"{'.'.join(path)}: {now}/s vs baseline {base}/s (< 1/{factor}x)"
            )
    if not current["sweep"]["bit_identical"]:
        failures.append("parallel sweep is not bit-identical to serial")
    if failures:
        print("PERF REGRESSION:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"perf check OK against {baseline_path} (threshold {factor}x)")
    return 0


#: Kernel registry for ``--kernels`` selection (and ``cosmodel bench``).
KERNELS = {
    "grid_cdf": bench_grid_cdf,
    "convolve_chain": bench_convolve_chain,
    "eval_cache": bench_eval_cache,
    "metrics_store": bench_metrics_store,
    "trace_overhead": bench_trace_overhead,
    "sim_dispatch": bench_sim_dispatch,
    "laplace_batch": bench_laplace_batch,
    "diagnostics_overhead": bench_diagnostics_overhead,
    "redundancy": bench_redundancy,
    "dispatch": bench_dispatch,
    "fleet": bench_fleet,
    "trace_sampling": bench_trace_sampling,
    "telemetry_overhead": bench_telemetry_overhead,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4, help="worker pool size (default 4)")
    parser.add_argument("--quick", action="store_true", help="2 rate points per scenario")
    parser.add_argument(
        "--kernels",
        default="all",
        metavar="NAMES",
        help="comma-separated micro-kernels to run (default: all); "
        f"choices: {', '.join(KERNELS)}",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline BENCH_perf.json; exit 1 on >2x regression",
    )
    parser.add_argument(
        "--check-factor",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="regression tolerance for --check (default 2.0; CI runners with "
        "noisy wall clocks may need a looser factor)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_perf.json"),
        help="output path (default: repo-root BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    print(f"sweep: S1+S16 bench rates, serial vs jobs={args.jobs} ...", flush=True)
    sweep = bench_sweep(args.jobs, args.quick)
    if "parallel_s" in sweep:
        print(
            f"  serial {sweep['serial_s']}s, parallel {sweep['parallel_s']}s "
            f"(speedup {sweep['speedup']}x, bit_identical={sweep['bit_identical']})"
        )
    else:
        print(f"  serial {sweep['serial_s']}s, parallel {sweep['parallel']}")

    if args.kernels == "all":
        selected = list(KERNELS)
    else:
        selected = [name.strip() for name in args.kernels.split(",") if name.strip()]
        unknown = [name for name in selected if name not in KERNELS]
        if unknown:
            parser.error(
                f"unknown kernels {', '.join(unknown)}; choices: {', '.join(KERNELS)}"
            )

    print("micro-kernels ...", flush=True)
    kernels = {
        name: (
            bench_fleet(jobs=args.jobs, quick=args.quick)
            if name == "fleet"
            else KERNELS[name]()
        )
        for name in selected
    }
    for name, row in kernels.items():
        if "speedup" in row:
            print(f"  {name}: speedup {row['speedup']}x")
    if "metrics_store" in kernels:
        ms = kernels["metrics_store"]
        print(
            f"  metrics_store: list {ms['list_s']}s / hist {ms['hist_s']}s, "
            f"memory ratio {ms['memory_ratio']}x, p99 delta {ms['p99_rel_delta']}"
        )
    if "trace_overhead" in kernels:
        tr = kernels["trace_overhead"]
        print(
            f"  trace_overhead: off {tr['off_s']}s, on {tr['on_s']}s "
            f"(+{tr['on_overhead'] * 100:.1f}%)"
        )
    if "diagnostics_overhead" in kernels:
        dg = kernels["diagnostics_overhead"]
        print(
            f"  diagnostics_overhead: off {dg['off_s']}s, on {dg['on_s']}s "
            f"(+{dg['on_overhead'] * 100:.1f}%, "
            f"bit_identical={dg['bit_identical']})"
        )
    if "redundancy" in kernels:
        rd = kernels["redundancy"]
        print(
            f"  redundancy: single {rd['single_s']}s, kofn@2 {rd['kofn_s']}s "
            f"(+{rd['kofn_overhead'] * 100:.1f}%), "
            f"k1_bit_identical={rd['k1_bit_identical']}, "
            f"orderstat dp {rd['orderstat_s']}s vs iid {rd['iid_s']}s"
        )
    if "dispatch" in kernels:
        dp = kernels["dispatch"]
        print(
            f"  dispatch: random {dp['random_s']}s, power_of_d {dp['power_of_d_s']}s "
            f"(+{dp['power_of_d_overhead'] * 100:.1f}%), "
            f"imbalance {dp['power_of_d_imbalance']}, "
            f"random_bit_identical={dp['random_bit_identical']}"
        )
    if "trace_sampling" in kernels:
        ts = kernels["trace_sampling"]
        print(
            f"  trace_sampling: off {ts['off_s']}s, on@1% {ts['on_s']}s "
            f"(+{ts['on_overhead'] * 100:.1f}%, {ts['n_sampled']} sampled, "
            f"bit_identical={ts['bit_identical']}, "
            f"shard_invariant={ts['shard_invariant']})"
        )
    if "telemetry_overhead" in kernels:
        to = kernels["telemetry_overhead"]
        print(
            f"  telemetry_overhead: off {to['off_s']}s, all-on {to['on_s']}s "
            f"(+{to['on_overhead'] * 100:.1f}%, "
            f"{to['profiled_events']} profiled events, "
            f"bit_identical={to['bit_identical']})"
        )
    if "fleet" in kernels:
        fl = kernels["fleet"]
        sharded = fl.get("sharded_s", fl.get("sharded"))
        print(
            f"  fleet: {fl['n_devices']} devices, {fl['n_requests']} req, "
            f"serial {fl['serial_s']}s ({fl['events_per_sec_serial']:,} ev/s), "
            f"sharded {sharded}, bit_identical={fl['bit_identical']}, "
            f"lane drain {fl['lane_s']}s"
        )

    result = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "sweep": sweep,
        "kernels": kernels,
    }

    if args.check:
        status = check_against(
            pathlib.Path(args.check), result, factor=args.check_factor
        )
    else:
        status = 0 if sweep["bit_identical"] else 1
        pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
