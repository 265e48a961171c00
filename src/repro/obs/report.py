"""``cosmodel report``: render observability artifacts as tables.

One entry point, :func:`render_report`, that recognises the artifact by
content:

* a **trace** (JSON Lines of span records, see :mod:`repro.obs.trace`)
  renders per-fault-phase latency attribution -- request counts, mean
  per-stage breakdown, histogram percentiles -- plus a per-device disk
  operation table;
* a **manifest** (``*.manifest.json`` sidecar) renders its provenance
  fields and eval-cache counters;
* a **histogram dump** (:meth:`LatencyHistogram.to_dict`) renders the
  headline percentiles and the accuracy bound;
* a **sweep artifact** (``cosmodel sweep --out``) renders the per-point
  summary, the per-stage error-attribution table and the aggregated
  inversion diagnostics;
* a **kernel profile** (``cosmodel fleet --profile-out``) renders the
  per-handler wall-time attribution table.

For any other file the reporter looks for a ``<file>.manifest.json``
sidecar and renders that, so ``cosmodel report results/fig6.txt`` does
the right thing for plain-text artifacts too; with no sidecar either it
prints a "no manifest" note instead of failing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.hist import LatencyHistogram
from repro.obs.manifest import MANIFEST_KIND, manifest_path_for
from repro.obs.telemetry import KERNEL_PROFILE_KIND, render_kernel_profile
from repro.obs.trace import read_trace

__all__ = [
    "render_report",
    "render_trace_report",
    "render_manifest",
    "render_histogram",
    "render_sweep_report",
]

#: Percentiles every latency table reports.
PERCENTILES = (0.50, 0.90, 0.99, 0.999)


def _hist() -> LatencyHistogram:
    return LatencyHistogram(min_value=1e-6, max_value=1e4, buckets_per_decade=64)


def render_trace_report(events) -> str:
    """Per-phase latency attribution + disk-op table from span records."""
    requests: dict[str, list[dict]] = {}
    disk: dict[tuple[int, str], list[float]] = {}
    kind_counts: dict[str, int] = {}
    for e in events:
        kind_counts[e["k"]] = kind_counts.get(e["k"], 0) + 1
        if e["k"] == "request":
            requests.setdefault(e.get("ph", ""), []).append(e)
        elif e["k"] == "disk":
            disk.setdefault((e["dev"], e["op"]), []).append(e["svc"])

    lines = [
        "trace summary: "
        + ", ".join(f"{n} {k}" for k, n in sorted(kind_counts.items())),
        "",
    ]
    if requests:
        head = (
            f"  {'phase':10s} {'n':>6s} {'mean':>8s} {'p50':>8s} {'p99':>8s}"
            f" {'p999':>8s} {'Sq':>8s} {'Wa':>8s} {'Sbe':>8s}   (ms)"
        )
        lines.append("per-phase latency attribution (read requests):")
        lines.append(head)
        lines.append("  " + "-" * (len(head) - 2))
        # The empty tag marks spans recorded before any phase marker
        # (e.g. the settle period of a fault episode); with no markers
        # at all it simply covers the whole run.
        untagged = "(all)" if set(requests) == {""} else "(settle)"
        for phase in sorted(requests):
            rows = [r for r in requests[phase] if not r.get("write")]
            if not rows:
                continue
            hist = _hist()
            for r in rows:
                hist.record(max(r["t1"] - r["t0"], 0.0))
            p50, p99, p999 = (hist.quantile(q) for q in (0.5, 0.99, 0.999))

            def ms_mean(key: str) -> float:
                return 1e3 * sum(r[key] for r in rows) / len(rows)

            lines.append(
                f"  {phase or untagged:10s} {len(rows):>6d}"
                f" {hist.mean() * 1e3:>8.2f} {p50 * 1e3:>8.2f}"
                f" {p99 * 1e3:>8.2f} {p999 * 1e3:>8.2f}"
                f" {ms_mean('fe_sojourn'):>8.2f}"
                f" {ms_mean('accept_wait'):>8.2f}"
                f" {ms_mean('be_response'):>8.2f}"
            )
        lines.append("")
    if disk:
        lines.append("disk operations (service time, ms):")
        head = f"  {'device':>6s} {'op':>6s} {'n':>7s} {'mean':>8s} {'p99':>8s}"
        lines.append(head)
        lines.append("  " + "-" * (len(head) - 2))
        for (dev, op) in sorted(disk):
            svcs = disk[(dev, op)]
            hist = _hist()
            for s in svcs:
                hist.record(max(s, 0.0))
            lines.append(
                f"  {dev:>6d} {op:>6s} {len(svcs):>7d}"
                f" {hist.mean() * 1e3:>8.2f} {hist.quantile(0.99) * 1e3:>8.2f}"
            )
    return "\n".join(lines)


def render_manifest(doc: dict) -> str:
    versions = doc.get("versions") or {}
    cache = doc.get("evalcache") or {}
    rows = [
        ("command", doc.get("command")),
        ("created (unix)", doc.get("created_unix")),
        ("git SHA", doc.get("git_sha")),
        ("seed", doc.get("seed")),
        ("config hash", doc.get("config_hash")),
        ("wall time (s)", doc.get("wall_s")),
        ("CPU time (s)", doc.get("cpu_s")),
        ("python / numpy / scipy",
         " / ".join(str(versions.get(k)) for k in ("python", "numpy", "scipy"))),
    ]
    lines = ["run manifest:"]
    for name, value in rows:
        if value is not None:
            lines.append(f"  {name:24s} {value}")
    if cache:
        lines.append("  evalcache counters:")
        for key in sorted(cache):
            lines.append(f"    {key:22s} {cache[key]}")
    if doc.get("extra"):
        lines.append("  extra:")
        for key, value in sorted(doc["extra"].items()):
            lines.append(f"    {key:22s} {value}")
    return "\n".join(lines)


def render_histogram(doc: dict) -> str:
    hist = LatencyHistogram.from_dict(doc)
    lines = [
        f"latency histogram: n={hist.count}, mean={hist.mean() * 1e3:.2f} ms, "
        f"relative error <= {hist.relative_error_bound:.2%}",
    ]
    for q in PERCENTILES:
        lines.append(f"  p{q * 100:g}".ljust(10) + f"{hist.quantile(q) * 1e3:10.2f} ms")
    return "\n".join(lines)


def render_sweep_report(doc: dict, path: Path) -> str:
    """Sweep artifact: per-point summary, error attribution, diagnostics.

    Imports the experiments layer lazily -- ``repro.obs`` stays
    importable without it, and only sweep artifacts pay the import.
    """
    from repro.experiments.attribution import render_attribution, sweep_from_doc

    sweep = sweep_from_doc(doc)
    lines = [
        f"sweep artifact: {sweep.scenario} "
        f"({len(sweep.points)} points, models: {', '.join(sweep.models)})",
        "",
    ]
    head = f"  {'rate':>8} {'requests':>9} {'max util':>9}"
    slas = sweep.slas
    for sla in slas:
        head += f"  {'obs@' + format(sla * 1e3, 'g') + 'ms':>11}"
    lines.append(head)
    for p in sweep.points:
        row = f"  {p.rate:>8g} {p.n_requests:>9d} {p.max_utilization:>9.3f}"
        for sla in slas:
            row += f"  {p.observed[sla]:>11.4f}"
        lines.append(row)
    lines.append("")
    lines.append(render_attribution(sweep))
    diagnosed = [p for p in sweep.points if p.diagnostics]
    if diagnosed:
        worst_self = max(
            (p.diagnostics.get("max_self_error") or 0.0) for p in diagnosed
        )
        worst_cross = max(
            (p.diagnostics.get("max_cross_disagreement") or 0.0)
            for p in diagnosed
        )
        flagged = sum(p.diagnostics.get("n_flagged", 0) for p in diagnosed)
        calls = sum(p.diagnostics.get("n_calls", 0) for p in diagnosed)
        lines.append("")
        lines.append(
            "inversion diagnostics: "
            f"{calls} calls across {len(diagnosed)} points, "
            f"{flagged} flagged, max self-error {worst_self:.3e}, "
            f"max cross-method gap {worst_cross:.3e}"
        )
    sidecar = manifest_path_for(path)
    if sidecar.exists():
        lines.append("")
        lines.append(render_manifest(json.loads(sidecar.read_text())))
    return "\n".join(lines)


def _looks_like_histogram(doc: dict) -> bool:
    return {"min_value", "max_value", "buckets_per_decade", "counts"} <= doc.keys()


def render_report(path: str) -> str:
    """Dispatch on the artifact's content; see module docstring."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such artifact: {path}")
    text = p.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.splitlines()[0]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            sections = []
            if doc.get("kind") == MANIFEST_KIND:
                return render_manifest(doc)
            if _looks_like_histogram(doc):
                return render_histogram(doc)
            if doc.get("kind") == "cosmodel-sweep":
                return render_sweep_report(doc, p)
            if doc.get("kind") == KERNEL_PROFILE_KIND:
                return render_kernel_profile(doc)
            # JSONL traces also start with "{" but fail whole-file JSON
            # parsing (multiple documents); fall through below.
            sections.append(f"artifact: {p.name} (JSON)")
            sidecar = manifest_path_for(p)
            if sidecar.exists():
                sections.append(render_manifest(json.loads(sidecar.read_text())))
            else:
                sections.append("  (no manifest sidecar)")
            if "phases" in doc:
                sections.append(
                    "  phases: "
                    + ", ".join(ph.get("phase", "?") for ph in doc["phases"])
                )
            return "\n\n".join(sections)
        if doc is None and first_line.startswith("{"):
            return render_trace_report(read_trace(p))
    # Plain-text artifact: report its sidecar if one exists.  Artifacts
    # written before manifests existed have none -- degrade to a note
    # rather than refusing to report at all.
    sidecar = manifest_path_for(p)
    if sidecar.exists():
        return (
            f"artifact: {p.name}\n\n"
            + render_manifest(json.loads(sidecar.read_text()))
        )
    return (
        f"artifact: {p.name}\n\n"
        "  (no manifest sidecar: this artifact predates provenance "
        "recording or was moved without its .manifest.json; re-generate "
        "it with a current cosmodel to record one)"
    )
