"""Command-line interface: ``cosmodel`` (also ``python -m repro.cli``).

Subcommands:

``predict <system.json>``
    Evaluate the latency-percentile model on a JSON system description
    (see :func:`load_system` for the schema) and print percentiles,
    quantiles and the per-device breakdown.

``fig5`` / ``fig6`` / ``fig7`` / ``tables`` / ``ablations``
    Regenerate the paper's artifacts at the chosen scale.

``faults --scenario slow-disk --sla 100ms [--trace spans.jsonl]``
    Run one fault-injection scenario (fault episode + control episode),
    print the per-phase model-vs-simulation table and write the JSON
    comparison artifact plus its provenance manifest (see
    docs/FAULTS.md).  ``--trace`` also records per-request spans of the
    fault episode to a JSONL file.

``redundancy --strategy kofn --fanout 2 --sla 100ms``
    Run one redundant-read scenario (strategy episode + single-dispatch
    control episode), print the model-vs-simulation comparison with
    probe economics and error attribution, and write the JSON artifact
    plus its provenance manifest (see docs/REDUNDANCY.md).

``dispatch --workload s16 --zipf 1.2 --sla 100ms``
    Sweep frontend dispatch policies (round-robin, power-of-d, JBSQ,
    key-affinity) against the ``random`` baseline at one load: paired
    episodes from the same seed and trace, reporting tail-latency and
    load-imbalance deltas per policy, and writing the JSON artifact
    plus its provenance manifest (see docs/DISPATCH.md).

``report <artifact>``
    Render an observability artifact: a trace JSONL (per-phase latency
    attribution), a ``*.manifest.json`` provenance sidecar, a saved
    histogram, a kernel-profile JSON, or any artifact with a manifest
    sidecar next to it (see docs/OBSERVABILITY.md).

``fleet --clusters 8 --shards 4 --jobs 4 [--sample 0.01 --bus bus.jsonl]``
    Run one sharded fleet episode with optional telemetry: deterministic
    sampled tracing (``--sample``/``--trace-dir``), live shard streaming
    onto an event bus (``--bus``, watch with ``cosmodel top``) and the
    kernel time profiler (``--profile`` / ``--profile-out``).

``top <bus.jsonl> [--once]``
    Live ``top``-style view of a streaming fleet bus: per-shard
    progress, merged p50/p90/p99-so-far, straggler flags (see
    docs/OBSERVABILITY.md, "Fleet telemetry").

The JSON schema mirrors :class:`~repro.model.SystemParameters`::

    {
      "frontend": {"n_processes": 12, "parse_ms": 1.2},
      "devices": [
        {
          "name": "disk0",
          "request_rate": 35.0,
          "data_read_rate": 38.0,
          "miss_ratios": {"index": 0.45, "meta": 0.5, "data": 0.7},
          "n_processes": 1,
          "parse_ms": 0.4,
          "disk": {
            "index": {"family": "gamma", "shape": 2.4, "rate": 140.0},
            "meta":  {"family": "gamma", "shape": 1.8, "rate": 210.0},
            "data":  {"family": "gamma", "shape": 2.0, "rate": 230.0}
          }
        }
      ],
      "slas_ms": [10, 50, 100]
    }

Distribution specs accept families ``gamma`` (shape, rate),
``exponential`` (rate or mean_ms), ``degenerate`` (value_ms),
``weibull`` (shape, scale_ms), ``pareto`` (alpha, sigma_ms) and
``shifted-exponential`` (floor_ms, rate).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.model import build_model
from repro.model.serialization import (
    distribution_from_spec as parse_distribution,
    system_from_doc as load_system,
)

__all__ = ["main", "load_system", "parse_distribution"]


def _cmd_predict(args) -> int:
    with open(args.system) as fh:
        doc = json.load(fh)
    params, slas = load_system(doc)
    model = build_model(args.model, params, disk_queue=args.disk_queue)
    print(f"model: {args.model}  disk queue: {args.disk_queue}")
    print("\npercentile of requests meeting each SLA:")
    for sla in slas:
        print(f"  {sla * 1e3:7.1f} ms -> {model.sla_percentile(sla) * 100:6.2f}%")
    print("\nlatency quantiles:")
    for q in (0.5, 0.9, 0.95, 0.99):
        print(f"  p{q * 100:<4.0f} = {model.latency_quantile(q) * 1e3:8.2f} ms")
    print("\nper-device breakdown (ms):")
    print(f"  {'device':10s} {'util':>6s} {'Sq':>8s} {'Wa':>8s} {'Sbe':>9s}")
    for row in model.breakdown():
        print(
            f"  {row.device:10s} {row.utilization:6.2f}"
            f" {row.mean_frontend_queueing * 1e3:8.3f}"
            f" {row.mean_accept_wait * 1e3:8.3f}"
            f" {row.mean_backend_response * 1e3:9.3f}"
        )
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments import run_fig5, scenario_s1

    print(run_fig5(scenario_s1(args.scale), seed=args.seed).render())
    return 0


def _cmd_fig6(args) -> int:
    from repro.experiments import run_fig6, scenario_s1

    print(run_fig6(scenario_s1(args.scale), seed=args.seed, jobs=args.jobs).render_all())
    return 0


def _cmd_fig7(args) -> int:
    from repro.experiments import run_fig7, scenario_s16

    print(run_fig7(scenario_s16(args.scale), seed=args.seed, jobs=args.jobs).render_all())
    return 0


def _cmd_tables(args) -> int:
    from repro.experiments import run_tables

    t1, t2 = run_tables(seed=args.seed, scale=args.scale, jobs=args.jobs)
    print(t1.render())
    print()
    print(t2.render())
    print(f"\nOverall mean error of our model: {t1.overall_mean * 100:.2f}%")
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments import (
        run_accept_wait_ablation,
        run_disk_queue_ablation,
        run_inversion_ablation,
    )

    print(run_accept_wait_ablation(seed=args.seed).render())
    print()
    print(run_disk_queue_ablation(seed=args.seed).render())
    print()
    print(run_inversion_ablation(seed=args.seed).render())
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments.artifacts import generate_all

    files = generate_all(args.out, scale=args.scale, seed=args.seed, jobs=args.jobs)
    print(f"wrote {len(files)} artifacts to {args.out}/")
    return 0


def _parse_sla(text: str) -> float:
    """Parse an SLA duration: ``100ms``, ``0.1s`` or plain seconds."""
    t = text.strip().lower()
    try:
        if t.endswith("ms"):
            return float(t[:-2]) / 1e3
        if t.endswith("s"):
            return float(t[:-1])
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse SLA {text!r}; use e.g. '100ms', '0.1s' or '0.1'"
        ) from None


def _cmd_faults(args) -> int:
    from repro.experiments.faults import (
        FAULT_SCENARIOS,
        run_fault_scenario,
        write_artifact,
    )

    from repro.obs import Tracer, build_manifest, write_manifest
    from repro.obs.manifest import RunTimer

    if args.scenario not in FAULT_SCENARIOS:
        print(
            f"unknown scenario {args.scenario!r}; "
            f"choose from {', '.join(sorted(FAULT_SCENARIOS))}",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer() if args.trace else None
    with RunTimer() as timer:
        result = run_fault_scenario(
            args.scenario,
            args.workload,
            rate=args.rate,
            sla=args.sla,
            seed=args.seed,
            scale=args.scale,
            factor=args.factor,
            tracer=tracer,
        )
    print(result.render())
    out = args.out or f"faults-{args.scenario}-{args.workload}.json"
    write_artifact(result, out)
    manifest = build_manifest(
        command=f"cosmodel faults --scenario {args.scenario} --workload {args.workload}",
        seed=args.seed,
        config=vars(args),
        wall_s=timer.wall_s,
        cpu_s=timer.cpu_s,
        extra={"trace": args.trace, "n_spans": len(tracer) if tracer else 0},
    )
    sidecar = write_manifest(manifest, out)
    print(f"\nwrote {out} (+ {sidecar.name})")
    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote {args.trace} ({len(tracer)} spans)")
    return 0


def _cmd_redundancy(args) -> int:
    from repro.experiments.redundancy import (
        run_redundancy_scenario,
        write_artifact,
    )
    from repro.obs import build_manifest, write_manifest
    from repro.obs.manifest import RunTimer

    with RunTimer() as timer:
        result = run_redundancy_scenario(
            args.strategy,
            args.fanout,
            args.workload,
            rate=args.rate,
            sla=args.sla,
            seed=args.seed,
            scale=args.scale,
        )
    print(result.render())
    out = args.out or f"redundancy-{result.treated.label.replace('@', '')}-{args.workload}.json"
    write_artifact(result, out)
    manifest = build_manifest(
        command=(
            f"cosmodel redundancy --strategy {args.strategy} "
            f"--fanout {args.fanout} --workload {args.workload}"
        ),
        seed=args.seed,
        config=vars(args),
        wall_s=timer.wall_s,
        cpu_s=timer.cpu_s,
        extra={
            "excess_error": result.excess_error,
            "n_probes": result.treated.probes,
        },
    )
    sidecar = write_manifest(manifest, out)
    print(f"\nwrote {out} (+ {sidecar.name})")
    return 0


def _cmd_dispatch(args) -> int:
    from repro.experiments.dispatch import (
        DEFAULT_POLICIES,
        run_dispatch_scenario,
        write_artifact,
    )
    from repro.obs import build_manifest, write_manifest
    from repro.obs.manifest import RunTimer

    policies = (
        tuple(p.strip() for p in args.policies.split(",") if p.strip())
        if args.policies
        else DEFAULT_POLICIES
    )
    with RunTimer() as timer:
        result = run_dispatch_scenario(
            policies,
            args.workload,
            rate=args.rate,
            sla=args.sla,
            seed=args.seed,
            scale=args.scale,
            d=args.d,
            read_strategy=args.strategy,
            read_fanout=args.fanout,
            zipf_s=args.zipf,
            cache_mb=args.cache_mb,
        )
    print(result.render())
    out = args.out or f"dispatch-{args.workload}.json"
    write_artifact(result, out)
    best = result.ranking()[0]
    manifest = build_manifest(
        command=f"cosmodel dispatch --workload {args.workload}",
        seed=args.seed,
        config=vars(args),
        wall_s=timer.wall_s,
        cpu_s=timer.cpu_s,
        extra={
            "best_policy": best.policy,
            "baseline_p99": result.baseline.p99,
            "baseline_imbalance": result.baseline.imbalance,
        },
    )
    sidecar = write_manifest(manifest, out)
    print(f"\nwrote {out} (+ {sidecar.name})")
    return 0


def _cmd_inspect(args) -> int:
    from repro.experiments.introspect import inspect_target, render_inspection

    try:
        model, slas, note = inspect_target(
            args.target, rate=args.rate, seed=args.seed, quick=not args.full
        )
    except FileNotFoundError:
        print(
            f"unknown inspect target {args.target!r}: not a scenario "
            "(s1, s16) and no such file",
            file=sys.stderr,
        )
        return 2
    print(render_inspection(model, slas, note))
    return 0


_FLEET_EVENT_KINDS = (
    "fleet_started",
    "shard_heartbeat",
    "shard_snapshot",
    "shard_finished",
    "fleet_finished",
)


def _resolve_events_path(path: str) -> str:
    import os

    if os.path.isdir(path):
        return os.path.join(path, "events.jsonl")
    return path


def _cmd_watch(args) -> int:
    from repro.obs.events import _fmt, follow

    path = _resolve_events_path(args.path)
    n = 0
    for event in follow(path, once=args.once, timeout=args.timeout):
        if args.fleet and event.get("event") not in _FLEET_EVENT_KINDS:
            continue
        print(_fmt(event), flush=True)
        n += 1
    if n == 0:
        print(f"(no events in {path})")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.events import follow, read_events
    from repro.obs.telemetry import TopView, render_top

    path = _resolve_events_path(args.path)
    if args.once:
        try:
            events = read_events(path, strict=False)
        except OSError:
            print(f"(no events in {path})")
            return 0
        print(render_top(events))
        return 0
    view = TopView()
    shown = False
    for event in follow(path, timeout=args.timeout):
        view.feed(event)
        # Re-render on every state-bearing event; heartbeats only prime
        # the table, snapshots and completions move it.
        if event.get("event") in (
            "shard_snapshot",
            "shard_finished",
            "fleet_finished",
        ):
            print(("\n" if shown else "") + view.render(), flush=True)
            shown = True
    if not shown:
        if view.clusters or view.meta:
            print(view.render())
        else:
            print(f"(no fleet events in {path})")
    return 0


def _cmd_fleet(args) -> int:
    import os

    from repro.experiments.fleet import FleetScenario, run_fleet
    from repro.obs import TelemetryConfig, build_manifest, write_manifest
    from repro.obs.manifest import RunTimer
    from repro.obs.telemetry import render_kernel_profile, write_profile

    telem = TelemetryConfig(
        trace_sample_rate=args.sample,
        trace_seed=args.trace_seed,
        trace_dir=args.trace_dir,
        bus_path=args.bus,
        stream_interval=args.interval,
        profile=bool(args.profile or args.profile_out),
    )
    scenario = FleetScenario(
        n_clusters=args.clusters,
        objects_per_cluster=args.objects,
        rate=args.rate,
        duration=args.duration,
        warm_accesses=args.warm,
        write_fraction=args.write_fraction,
        latency_store=args.store,
        telemetry=telem if telem.active else None,
    )
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    with RunTimer() as timer:
        result = run_fleet(
            scenario, seed=args.seed, shards=args.shards, jobs=args.jobs
        )
    rec = result.recorder
    print(
        f"fleet: {scenario.n_clusters} clusters / {result.n_shards} shards"
        f" / {result.jobs} workers   {result.n_requests} requests,"
        f" {result.events} events, {result.disk_ops} disk ops,"
        f" {timer.wall_s:.2f}s"
    )
    table = rec.requests()
    if len(table):
        import numpy as np

        lats = table.response_latency
        print(
            "response latency: "
            + "  ".join(
                f"p{int(q * 100)}={float(np.quantile(lats, q)) * 1e3:.2f}ms"
                for q in (0.5, 0.9, 0.99)
            )
        )
    if result.profile:
        print()
        print(render_kernel_profile(list(result.profile)))
    if args.profile_out:
        write_profile(
            list(result.profile),
            args.profile_out,
            n_clusters=scenario.n_clusters,
            n_shards=result.n_shards,
            seed=args.seed,
        )
        print(f"\nwrote {args.profile_out}")
    if args.out:
        doc = {
            "kind": "cosmodel-fleet",
            "n_clusters": scenario.n_clusters,
            "n_shards": result.n_shards,
            "jobs": result.jobs,
            "n_requests": result.n_requests,
            "events": result.events,
            "disk_ops": result.disk_ops,
            "per_cluster": list(result.per_cluster),
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        manifest = build_manifest(
            command=f"cosmodel fleet --clusters {args.clusters}",
            seed=args.seed,
            config={k: v for k, v in vars(args).items() if k != "func"},
            wall_s=timer.wall_s,
            cpu_s=timer.cpu_s,
            extra={
                "n_shards": result.n_shards,
                "telemetry": telem.active,
            },
        )
        sidecar = write_manifest(manifest, args.out)
        print(f"wrote {args.out} (+ {sidecar.name})")
    return 0


def _cmd_sweep(args) -> int:
    import dataclasses

    from repro.experiments import calibrate, run_sweep, scenario_s1, scenario_s16
    from repro.experiments.attribution import render_attribution, write_sweep_artifact
    from repro.obs import build_manifest, write_manifest
    from repro.obs.manifest import RunTimer

    scenario = {"s1": scenario_s1, "s16": scenario_s16}[args.workload](args.scale)
    if args.quick:
        scenario = dataclasses.replace(
            scenario,
            n_objects=15_000,
            warm_accesses=40_000,
            window_duration=10.0,
            settle_duration=2.0,
        )
        calibration = calibrate(
            scenario, disk_objects=800, parse_requests=50, seed=args.seed
        )
    else:
        calibration = None
    rates = (
        tuple(float(r) for r in args.rates.split(","))
        if args.rates
        else None
    )
    with RunTimer() as timer:
        sweep = run_sweep(
            scenario,
            calibration=calibration,
            seed=args.seed,
            rates=rates,
            jobs=args.jobs,
            events=args.events,
            diagnose=args.diagnose,
        )
    print(
        f"sweep {sweep.scenario}: {len(sweep.points)} points, "
        f"{sum(p.n_requests for p in sweep.points)} requests"
    )
    print()
    print(render_attribution(sweep))
    diagnosed = [p.diagnostics for p in sweep.points if p.diagnostics]
    if diagnosed:
        print()
        print(
            "inversion diagnostics: "
            f"{sum(d['n_calls'] for d in diagnosed)} calls, "
            f"{sum(d['n_flagged'] for d in diagnosed)} flagged, "
            f"max self-error "
            f"{max(d['max_self_error'] for d in diagnosed):.3e}, "
            f"max cross-method gap "
            f"{max(d['max_cross_disagreement'] for d in diagnosed):.3e}"
        )
    if args.out:
        write_sweep_artifact(sweep, args.out)
        manifest = build_manifest(
            command=f"cosmodel sweep --workload {args.workload}",
            seed=args.seed,
            config={
                k: v for k, v in vars(args).items() if k != "func"
            },
            wall_s=timer.wall_s,
            cpu_s=timer.cpu_s,
            extra={
                "n_points": len(sweep.points),
                "diagnose": args.diagnose,
                "events": args.events,
                **(
                    {
                        "max_self_error": max(
                            d["max_self_error"] for d in diagnosed
                        ),
                        "max_cross_disagreement": max(
                            d["max_cross_disagreement"] for d in diagnosed
                        ),
                        "n_flagged": sum(d["n_flagged"] for d in diagnosed),
                    }
                    if diagnosed
                    else {}
                ),
            },
        )
        sidecar = write_manifest(manifest, args.out)
        print(f"\nwrote {args.out} (+ {sidecar.name})")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import render_report

    try:
        print(render_report(args.artifact))
    except FileNotFoundError:
        print(f"no such artifact: {args.artifact}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cannot report on {args.artifact}: {exc}", file=sys.stderr)
        return 2
    return 0


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep rate points "
        "(0 = all cores; default runs serially; results are identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmodel",
        description="Latency-percentile model for cloud object stores "
        "(ICPP 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="evaluate the model on a JSON system")
    p.add_argument("system", help="path to the system description JSON")
    p.add_argument(
        "--model",
        default="ours",
        choices=["ours", "odopr", "nowta", "mm1"],
        help="model family (default: ours)",
    )
    p.add_argument(
        "--disk-queue",
        default="mm1k",
        choices=["mm1k", "mg1k", "finite-source"],
        help="disk model for multi-process devices",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "reproduce", help="generate every figure/table artifact to a directory"
    )
    p.add_argument("--out", default="results")
    p.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser(
        "faults", help="fault-injection scenario: degraded model vs simulation"
    )
    p.add_argument(
        "--scenario",
        default="slow-disk",
        help="fault scenario: slow-disk, fail-stop, cache-flush or stall",
    )
    p.add_argument("--workload", default="s1", choices=["s1", "s16"])
    p.add_argument(
        "--sla",
        type=_parse_sla,
        default=0.100,
        help="SLA to evaluate, e.g. '100ms' or '0.05s' (default 100ms)",
    )
    p.add_argument("--rate", type=float, default=None, help="arrival rate (req/s)")
    p.add_argument(
        "--factor", type=float, default=2.0, help="slowdown factor for slow-disk"
    )
    p.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="JSON artifact path")
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record per-request spans of the fault episode to a JSONL file",
    )
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "redundancy",
        help="redundant-read scenario: order-statistic model vs simulation",
    )
    p.add_argument(
        "--strategy",
        default="kofn",
        choices=["kofn", "quorum", "forkjoin"],
        help="read-dispatch strategy for the treated episode (default kofn)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="k for kofn/forkjoin (ignored for quorum; default 2)",
    )
    p.add_argument("--workload", default="s1", choices=["s1", "s16"])
    p.add_argument(
        "--sla",
        type=_parse_sla,
        default=0.100,
        help="SLA to evaluate, e.g. '100ms' or '0.05s' (default 100ms)",
    )
    p.add_argument("--rate", type=float, default=None, help="arrival rate (req/s)")
    p.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="JSON artifact path")
    p.set_defaults(func=_cmd_redundancy)

    p = sub.add_parser(
        "dispatch",
        help="dispatch-policy sweep: tail latency + load imbalance vs random",
    )
    p.add_argument(
        "--policies",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated policies to sweep (default: round_robin,"
        "power_of_d,join_idle_queue,key_affinity; 'random' always runs"
        " as the baseline)",
    )
    p.add_argument("--workload", default="s16", choices=["s1", "s16"])
    p.add_argument(
        "--d",
        type=int,
        default=2,
        help="candidate count for power_of_d / credit bound for JBSQ"
        " (default 2)",
    )
    p.add_argument(
        "--strategy",
        default="single",
        choices=["single", "kofn", "quorum", "forkjoin"],
        help="read strategy to compose the policies with (default single)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=1,
        help="k for kofn/forkjoin (default 1)",
    )
    p.add_argument(
        "--zipf",
        type=float,
        default=None,
        help="override the catalog's Zipf popularity skew (hot keys"
        " make the imbalance story visible; scenario default 0.9)",
    )
    p.add_argument(
        "--cache-mb",
        type=float,
        default=None,
        help="override the per-server cache budget (MB); shrinking it"
        " keeps hot keys on disk so device load is visible to the"
        " policies",
    )
    p.add_argument(
        "--sla",
        type=_parse_sla,
        default=0.100,
        help="SLA to evaluate, e.g. '100ms' or '0.05s' (default 100ms)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrival rate (req/s; default: the scenario grid's 3/4 point)",
    )
    p.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="JSON artifact path")
    p.set_defaults(func=_cmd_dispatch)

    p = sub.add_parser(
        "report",
        help="render an observability artifact (trace, manifest, histogram, sweep)",
    )
    p.add_argument("artifact", help="trace JSONL, manifest sidecar or artifact path")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "inspect",
        help="render a scenario's model composition: distribution tree, "
        "stage means, inversion diagnostics",
    )
    p.add_argument(
        "target",
        help="scenario key (s1, s16) or a system-description JSON path",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrival rate for the measurement window "
        "(default: the scenario's middle rate point)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--full",
        action="store_true",
        help="measure at the scenario's full scale instead of the quick "
        "inspection window",
    )
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "watch",
        help="tail a sweep event log live (see 'cosmodel sweep --events')",
    )
    p.add_argument(
        "path", help="event JSONL path, or a directory containing events.jsonl"
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print the current events and exit instead of following",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop following after this long without new events",
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help="show only fleet telemetry events (shard heartbeats, "
        "snapshots, completions) when the bus also carries sweep events",
    )
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser(
        "top",
        help="live top-style view of a streaming fleet bus "
        "(see 'cosmodel fleet --bus')",
    )
    p.add_argument(
        "path", help="event JSONL path, or a directory containing events.jsonl"
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render the current fleet state once and exit",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop following after this long without new events",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "fleet",
        help="run a sharded fleet episode with optional telemetry "
        "(sampled tracing, live bus streaming, kernel profiler)",
    )
    p.add_argument("--clusters", type=int, default=4)
    p.add_argument(
        "--objects", type=int, default=2_000, help="objects per cluster"
    )
    p.add_argument(
        "--rate", type=float, default=300.0, help="fleet arrival rate (req/s)"
    )
    p.add_argument("--duration", type=float, default=20.0)
    p.add_argument(
        "--warm", type=int, default=20_000, help="fleet-wide warmup accesses"
    )
    p.add_argument("--write-fraction", type=float, default=0.0)
    p.add_argument(
        "--store",
        default="exact",
        choices=["exact", "histogram"],
        help="latency store mode (default exact)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count (default: one shard, serial)",
    )
    p.add_argument("--seed", type=int, default=0)
    _add_jobs_arg(p)
    p.add_argument(
        "--sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="deterministic trace-sampling rate in [0, 1] "
        "(head-based, shard-plan-invariant; needs --trace-dir)",
    )
    p.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="salt for the sampling hash (default 0)",
    )
    p.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write per-cluster sampled-trace JSONL files here",
    )
    p.add_argument(
        "--bus",
        default=None,
        metavar="PATH",
        help="stream live shard snapshots to this event JSONL "
        "(watch with 'cosmodel top')",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="minimum wall seconds between shard snapshots (default 0.5)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="enable the kernel time profiler and print its table",
    )
    p.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="write the merged kernel profile JSON here "
        "(render with 'cosmodel report')",
    )
    p.add_argument("--out", default=None, help="fleet summary JSON path")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "sweep",
        help="run one scenario sweep with live events, per-point "
        "diagnostics and error attribution",
    )
    p.add_argument("--workload", default="s1", choices=["s1", "s16"])
    p.add_argument("--scale", default="ci", choices=["ci", "paper"])
    p.add_argument(
        "--quick",
        action="store_true",
        help="goldens-scale measurement windows (fast; CI smoke uses this)",
    )
    p.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated rate points (default: the scenario's grid)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append per-point lifecycle events to this JSONL file",
    )
    p.add_argument(
        "--diagnose",
        action="store_true",
        help="run each point inside an inversion DiagnosticsSession",
    )
    p.add_argument("--out", default=None, help="write the sweep artifact JSON here")
    _add_jobs_arg(p)
    p.set_defaults(func=_cmd_sweep)

    for name, func, help_text in (
        ("fig5", _cmd_fig5, "disk service-time fits"),
        ("fig6", _cmd_fig6, "S1 prediction sweep"),
        ("fig7", _cmd_fig7, "S16 prediction sweep"),
        ("tables", _cmd_tables, "Tables I and II"),
        ("ablations", _cmd_ablations, "design-choice ablations"),
    ):
        p = sub.add_parser(name, help=f"reproduce {help_text}")
        p.add_argument("--scale", default="ci", choices=["ci", "paper"])
        p.add_argument("--seed", type=int, default=0)
        if name in ("fig6", "fig7", "tables"):
            _add_jobs_arg(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fleet" and args.sample > 0.0 and args.trace_dir is None:
        parser.error("fleet --sample needs --trace-dir: the sampled spans "
                     "are only kept in the per-cluster trace files")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; redirect stdout so the
        # interpreter's shutdown flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
