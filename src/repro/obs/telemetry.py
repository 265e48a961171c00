"""Fleet-scale telemetry: sampled tracing, live shard streaming, and
the kernel time profiler's export/merge/render layer.

Three pillars (docs/OBSERVABILITY.md, "Fleet telemetry"):

**Deterministic sampled tracing.**  A head-based sampling decision is
taken per request from a hash of ``(trace_seed, cluster_index,
request_id)`` -- never from wall clock, worker identity or a random
stream -- so the *same* requests are sampled no matter how clusters are
grouped into shards or how many worker processes run them.  Request ids
are per-cluster sequential and cluster seeds are index-derived, which
makes the triple shard-plan-invariant by construction.  The hash is the
splitmix64 finalizer: cheap, well mixed in the low bits, and available
in identical scalar (:func:`is_sampled`) and vectorised
(:func:`sample_mask`) forms, ``is_sampled(r) == sample_mask([r])[0]``
for every ``r``.  :class:`SampledTracer` applies the decision *inside*
the tracer, so none of the simulator's hook sites change; only sampled
requests' spans are materialised.

**Live shard streaming.**  :class:`ShardStreamer` periodically flushes
compact metric snapshots -- event counts, events/s, per-family
histogram *deltas* (sparse bucket counts), dispatch/redundancy leaf
summaries -- from a running cluster onto the
:class:`~repro.obs.events.EventLog` bus, with a heartbeat at start and
a final snapshot at drain.  Snapshots are strictly read-only: the
recorder's histogram partial sums are never flushed mid-run (see
``MetricsRecorder.live_hist_counts``), so a streamed run's final state
stays bit-identical to a silent one.  :class:`TopView` consumes the bus
(``cosmodel top`` / ``cosmodel watch --fleet``) and renders per-shard
progress, merged p50/p90/p99-so-far, and straggler flags.

**Kernel time profiler.**  ``Simulator.enable_profile()`` wraps the
dispatch table in timing closures (per-opcode wall seconds + event
counts); this module merges the per-cluster attribution rows
(:func:`merge_profile_rows`) and renders them
(:func:`render_kernel_profile`) for ``cosmodel report`` and the run
manifests.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np

from repro.obs.trace import Tracer, read_trace, write_trace

__all__ = [
    "TelemetryConfig",
    "SampledTracer",
    "ShardStreamer",
    "TopView",
    "KERNEL_PROFILE_KIND",
    "is_sampled",
    "sample_mask",
    "sample_salt",
    "sample_threshold",
    "merge_shard_traces",
    "merge_profile_rows",
    "profile_doc",
    "render_kernel_profile",
    "render_top",
]


# ----------------------------------------------------------------------
# deterministic head-based sampling
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer (scalar form)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sample_salt(trace_seed: int, cluster_index: int = 0) -> int:
    """Per-cluster hash salt.

    Depends only on ``(trace_seed, cluster_index)`` -- both invariant
    under resharding and worker count -- so the sampled set is too.
    """
    return _mix64(
        (trace_seed & _MASK64) ^ _mix64(((cluster_index + 1) * _GOLDEN) & _MASK64)
    )


def sample_threshold(rate: float) -> int:
    """The 64-bit acceptance threshold for a sampling ``rate`` in [0, 1]."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate must be in [0, 1], got {rate}")
    if rate >= 1.0:
        return 1 << 64
    return int(rate * float(1 << 64))


def is_sampled(rid: int, salt: int, threshold: int) -> bool:
    """Scalar sampling decision for one request id."""
    return _mix64(rid ^ salt) < threshold


def sample_mask(rids, salt: int, threshold: int) -> np.ndarray:
    """Vectorised sibling of :func:`is_sampled` (bit-identical)."""
    x = np.asarray(rids, dtype=np.uint64) ^ np.uint64(salt)
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    if threshold >= 1 << 64:
        return np.ones(x.shape, dtype=bool)
    return x < np.uint64(threshold)


class SampledTracer(Tracer):
    """A :class:`Tracer` that keeps only deterministically-sampled
    requests.

    Every hook receives the request id, so the gate lives entirely in
    here -- the simulator's emission sites are byte-for-byte those of a
    plain tracer.  Hook calls for unsampled requests return after one
    cached-decision check.  Decisions are precomputed in vectorised
    blocks (request ids are sequential per cluster), so the steady-state
    per-call cost is an attribute compare plus a list index.

    Like the base tracer, no random stream is ever touched: traced and
    untraced runs are bit-identical in every simulated quantity.
    """

    __slots__ = ("rate", "salt", "threshold", "_decisions", "_last_rid",
                 "_last_on")

    _BLOCK = 8192

    def __init__(
        self, rate: float, *, seed: int = 0, cluster_index: int = 0
    ) -> None:
        super().__init__()
        self.rate = float(rate)
        self.salt = sample_salt(int(seed), int(cluster_index))
        self.threshold = sample_threshold(self.rate)
        self._decisions: list[bool] = []
        self._last_rid = -1
        self._last_on = False

    # ------------------------------------------------------------------
    def wants(self, rid: int) -> bool:
        """The (cached) sampling decision for ``rid``."""
        if rid == self._last_rid:
            return self._last_on
        if rid < 0:
            # Synthetic tags (warmup probes, unowned ops) are never
            # sampled; they carry no request identity to merge on.
            return False
        dec = self._decisions
        if rid >= len(dec):
            n0 = len(dec)
            n1 = max(rid + 1, n0 + self._BLOCK)
            dec.extend(
                sample_mask(
                    np.arange(n0, n1, dtype=np.uint64),
                    self.salt,
                    self.threshold,
                ).tolist()
            )
        on = dec[rid]
        self._last_rid = rid
        self._last_on = on
        return on

    # -- gated emission hooks ------------------------------------------
    def admit_span(self, rid, fid, t):
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.admit_span(self, rid, fid, t)

    def frontend_span(self, rid, fid, t0, t1):
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.frontend_span(self, rid, fid, t0, t1)

    def accept_span(self, rid, dev, t0, t1):
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.accept_span(self, rid, dev, t0, t1)

    def disk_span(self, tag, dev, op, t0, start, end):
        if self._last_on if tag == self._last_rid else self.wants(tag):
            Tracer.disk_span(self, tag, dev, op, t0, start, end)

    def send_span(self, rid, dev, idx, t0, t1, first, last):
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.send_span(self, rid, dev, idx, t0, t1, first, last)

    def timeout_event(self, rid, dev, attempt, now):
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.timeout_event(self, rid, dev, attempt, now)

    def request_span(self, req):
        rid = req.rid
        if self._last_on if rid == self._last_rid else self.wants(rid):
            Tracer.request_span(self, req)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Fleet telemetry knobs (all off by default; picklable).

    ``trace_sample_rate`` > 0 installs a :class:`SampledTracer` per
    cluster (seeded from ``trace_seed`` and the cluster index) and, when
    ``trace_dir`` is set, writes one ``trace-cluster%04d.jsonl`` per
    cluster for :func:`merge_shard_traces`.  ``bus_path`` streams live
    shard snapshots onto that event log every ``stream_interval`` wall
    seconds.  ``profile`` switches on the kernel time profiler.
    """

    trace_sample_rate: float = 0.0
    trace_seed: int = 0
    trace_dir: str | None = None
    bus_path: str | None = None
    stream_interval: float = 0.5
    profile: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if not 0.0 <= self.stream_interval < math.inf:
            raise ValueError(
                "stream_interval must be finite and >= 0, "
                f"got {self.stream_interval}"
            )

    @property
    def tracing(self) -> bool:
        return self.trace_sample_rate > 0.0

    @property
    def streaming(self) -> bool:
        return self.bus_path is not None

    @property
    def active(self) -> bool:
        return self.tracing or self.streaming or self.profile


# ----------------------------------------------------------------------
# live shard streaming
# ----------------------------------------------------------------------


def _default_geometry() -> dict:
    from repro.obs.hist import LatencyHistogram

    h = LatencyHistogram()
    return {
        "min_value": h.min_value,
        "max_value": h.max_value,
        "buckets_per_decade": h.buckets_per_decade,
    }


class ShardStreamer:
    """Streams one running cluster's progress onto an event-log bus.

    The worker calls :meth:`heartbeat` once after construction,
    :meth:`maybe_snapshot` at every arrival-window boundary (throttled
    to ``interval`` wall seconds), and :meth:`finish` after the drain.
    Snapshots carry per-family histogram *deltas* since the previous
    snapshot -- sparse ``{bucket: count}`` dicts under the recorder's
    geometry -- so a consumer reconstructs cumulative distributions by
    integer addition and the events stay small.  All reads of the
    recorder are side-effect-free; the simulated run is bit-identical
    with streaming on or off.
    """

    def __init__(
        self,
        log,
        cluster,
        *,
        cluster_index: int,
        duration: float,
        interval: float = 0.5,
    ) -> None:
        self.log = log
        self.cluster = cluster
        self.index = int(cluster_index)
        self.duration = float(duration)
        self.interval = float(interval)
        self._seq = 0
        self._rows_mark = 0
        self._prev_counts: dict | None = None
        self._last_emit = time.monotonic()
        self._last_events = 0
        self._geometry = None

    # ------------------------------------------------------------------
    def heartbeat(self) -> None:
        self.log.emit(
            "shard_heartbeat",
            cluster=self.index,
            sim_now=float(self.cluster.sim.now),
            duration=self.duration,
            n_requests=int(self.cluster.metrics.n_requests),
            events=int(self.cluster.sim.events_scheduled),
        )

    def _family_deltas(self) -> dict:
        """Per-family sparse bucket-count deltas since the last snapshot."""
        from repro.obs.hist import LatencyHistogram

        rec = self.cluster.metrics
        # Both store modes bucket under the recorder's default geometry
        # (the only one MetricsRecorder constructs).  Never call
        # histograms()/histogram() here -- those flush, and a mid-run
        # flush regroups float partial sums, breaking final-state
        # bit-identity against a silent run.
        if self._geometry is None:
            self._geometry = _default_geometry()
        if rec.latency_store == "histogram":
            cur = rec.live_hist_counts()
            prev = self._prev_counts or {}
            out = {}
            for name, doc in cur.items():
                pdoc = prev.get(name, {"count": 0, "counts": {}})
                pcounts = pdoc["counts"]
                delta = {}
                for j, c in doc["counts"].items():
                    d = c - pcounts.get(j, 0)
                    if d:
                        delta[j] = d
                out[name] = {
                    "count": doc["count"] - pdoc["count"],
                    "counts": delta,
                }
            self._prev_counts = cur
            return out
        # Exact mode: bin only the new rows -- the freshly-binned counts
        # *are* the delta.
        self._rows_mark, values = rec.rows_values_since(self._rows_mark)
        out = {}
        for name, vals in values.items():
            tmp = LatencyHistogram(**self._geometry)
            tmp.record_many(vals)
            doc = tmp.to_dict()
            out[name] = {"count": doc["count"], "counts": doc["counts"]}
        return out

    def maybe_snapshot(self, *, force: bool = False) -> bool:
        now = time.monotonic()
        if not force and now - self._last_emit < self.interval:
            return False
        rec = self.cluster.metrics
        sim = self.cluster.sim
        events = int(sim.events_scheduled)
        dt = now - self._last_emit
        ev_s = (events - self._last_events) / dt if dt > 0 else 0.0
        disp = rec.dispatch_stats(len(self.cluster.devices))
        red = rec.redundant_stats()
        self._seq += 1
        self.log.emit(
            "shard_snapshot",
            cluster=self.index,
            seq=self._seq,
            sim_now=float(min(sim.now, self.duration)),
            duration=self.duration,
            n_requests=int(rec.n_requests),
            events=events,
            events_per_sec=round(ev_s, 1),
            geometry=self._geometry or _default_geometry(),
            families=self._family_deltas(),
            dispatch={
                "policy": disp["policy"],
                "dispatches": disp["dispatches"],
                "imbalance": disp["imbalance"],
            },
            redundant={
                "strategy": red["strategy"],
                "requests": red["requests"],
                "probes": red["probes"],
                "aborted": red["aborted"],
                "wasted_chunks": red["wasted_chunks"],
            },
        )
        self._last_emit = now
        self._last_events = events
        return True

    def finish(self, *, wall_s: float | None = None) -> None:
        """Final snapshot (forced) plus the shard's closing event."""
        self.maybe_snapshot(force=True)
        fields = {
            "cluster": self.index,
            "sim_now": float(min(self.cluster.sim.now, self.duration)),
            "duration": self.duration,
            "n_requests": int(self.cluster.metrics.n_requests),
            "events": int(self.cluster.sim.events_scheduled),
        }
        if wall_s is not None:
            fields["wall_s"] = round(float(wall_s), 3)
        self.log.emit("shard_finished", **fields)


class TopView:
    """Aggregates fleet bus events into a ``top``-style live view.

    Feed it events (from :func:`repro.obs.events.follow` or
    ``read_events``); it tracks per-cluster progress and accumulates the
    per-family histogram deltas into merged distributions, so
    p50/p90/p99-so-far are answerable at any instant within one
    log-bucket width.
    """

    def __init__(self) -> None:
        self.clusters: dict[int, dict] = {}
        self.families: dict[str, dict] = {}
        self.geometry: dict | None = None
        self.meta: dict = {}

    # ------------------------------------------------------------------
    def feed(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "fleet_started":
            self.meta.update(
                n_clusters=event.get("n_clusters"),
                scenario=event.get("scenario"),
                started_t=event.get("t"),
            )
        elif kind == "fleet_finished":
            self.meta.update(
                finished=True,
                n_requests=event.get("n_requests"),
                wall_s=event.get("wall_s"),
            )
        elif kind in ("shard_heartbeat", "shard_snapshot", "shard_finished"):
            ci = int(event.get("cluster", -1))
            row = self.clusters.setdefault(ci, {"finished": False})
            for key in ("sim_now", "duration", "n_requests", "events",
                        "events_per_sec"):
                if key in event:
                    row[key] = event[key]
            row["last_t"] = event.get("t", row.get("last_t"))
            if kind == "shard_finished":
                row["finished"] = True
            if kind == "shard_snapshot":
                if self.geometry is None:
                    self.geometry = event.get("geometry")
                for name, doc in (event.get("families") or {}).items():
                    fam = self.families.setdefault(
                        name, {"count": 0, "counts": {}}
                    )
                    fam["count"] += doc.get("count", 0)
                    counts = fam["counts"]
                    for j, c in doc.get("counts", {}).items():
                        j = int(j)
                        counts[j] = counts.get(j, 0) + c

    def feed_all(self, events) -> "TopView":
        for event in events:
            self.feed(event)
        return self

    # ------------------------------------------------------------------
    def merged_quantiles(
        self, family: str = "response", qs=(0.5, 0.9, 0.99)
    ) -> dict[float, float]:
        """Merged so-far quantiles of one latency family (NaN if no
        snapshot carried that family yet)."""
        from repro.obs.hist import LatencyHistogram

        fam = self.families.get(family)
        if not fam or fam["count"] <= 0:
            return {float(q): float("nan") for q in qs}
        hist = LatencyHistogram(**(self.geometry or _default_geometry()))
        for j, c in fam["counts"].items():
            hist._counts[int(j)] += int(c)
        hist._count = int(fam["count"])
        return {float(q): hist.quantile(q) for q in qs}

    def stragglers(self) -> list[int]:
        """Unfinished clusters whose simulated progress lags the median
        of the others by more than half."""
        progress = {}
        for ci, row in self.clusters.items():
            dur = row.get("duration") or 0.0
            if dur > 0:
                progress[ci] = min(row.get("sim_now", 0.0) / dur, 1.0)
        if len(progress) < 2:
            return []
        med = float(np.median(list(progress.values())))
        return sorted(
            ci
            for ci, p in progress.items()
            if not self.clusters[ci]["finished"] and p < 0.5 * med
        )

    def render(self) -> str:
        lines = []
        head = "fleet"
        if self.meta.get("n_clusters") is not None:
            head += f"  {self.meta['n_clusters']} clusters"
        if self.meta.get("finished"):
            head += "  [finished"
            if self.meta.get("wall_s") is not None:
                head += f" in {self.meta['wall_s']:.2f}s"
            head += "]"
        lines.append(head)
        lines.append(
            f"{'cluster':>8} {'prog':>6} {'requests':>10} {'events':>12} "
            f"{'ev/s':>10}  status"
        )
        lagging = set(self.stragglers())
        for ci in sorted(self.clusters):
            row = self.clusters[ci]
            dur = row.get("duration") or 0.0
            prog = (
                min(row.get("sim_now", 0.0) / dur, 1.0) if dur > 0 else 0.0
            )
            if row.get("finished"):
                status = "done"
            elif ci in lagging:
                status = "STRAGGLER"
            else:
                status = "running"
            lines.append(
                f"{ci:>8} {100.0 * prog:>5.1f}% "
                f"{row.get('n_requests', 0):>10} "
                f"{row.get('events', 0):>12} "
                f"{row.get('events_per_sec', 0.0):>10.0f}  {status}"
            )
        qs = self.merged_quantiles()
        total_req = sum(
            r.get("n_requests", 0) for r in self.clusters.values()
        )
        lines.append(
            f"merged so far: {total_req} requests   response "
            + "  ".join(
                f"p{int(q * 100)}={v * 1000.0:.2f}ms" if v == v else
                f"p{int(q * 100)}=--"
                for q, v in qs.items()
            )
        )
        return "\n".join(lines)


def render_top(events) -> str:
    """One-shot ``cosmodel top --once`` rendering of a fleet bus."""
    return TopView().feed_all(events).render()


# ----------------------------------------------------------------------
# per-shard trace files
# ----------------------------------------------------------------------

_TRACE_NAME = "trace-cluster{index:04d}.jsonl"
_TRACE_RE = re.compile(r"trace-cluster(\d+)\.jsonl$")


def shard_trace_path(trace_dir, index: int) -> str:
    return str(Path(trace_dir) / _TRACE_NAME.format(index=int(index)))


def merge_shard_traces(trace_dir, out_path=None) -> list[dict]:
    """Merge per-cluster trace JSONL files by request id.

    Every record gains a ``cluster`` field (from its file name); the
    merged stream is ordered by ``(cluster, rid)`` with each request's
    spans kept in emission order, so one request's story reads
    contiguously.  Writes JSONL to ``out_path`` when given.
    """
    merged: list[dict] = []
    for path in sorted(Path(trace_dir).glob("trace-cluster*.jsonl")):
        m = _TRACE_RE.search(path.name)
        index = int(m.group(1)) if m else -1
        for record in read_trace(path):
            record.setdefault("cluster", index)
            merged.append(record)
    merged.sort(
        key=lambda r: (r.get("cluster", -1), r.get("rid", -1))
    )
    if out_path is not None:
        write_trace(merged, out_path)
    return merged


# ----------------------------------------------------------------------
# kernel profile export / merge / render
# ----------------------------------------------------------------------

KERNEL_PROFILE_KIND = "cosmodel-kernel-profile"


def merge_profile_rows(row_lists) -> list[dict]:
    """Sum per-handler ``{name, events, total_s}`` rows across clusters/shards
    (and the ``calls`` of profile-span rows)."""
    by_name: dict[str, dict] = {}
    for rows in row_lists:
        for row in rows or ():
            acc = by_name.setdefault(
                row["name"], {"name": row["name"], "events": 0, "total_s": 0.0}
            )
            acc["events"] += row["events"]
            acc["total_s"] += row["total_s"]
            if "calls" in row:
                acc["calls"] = acc.get("calls", 0) + row["calls"]
    out = list(by_name.values())
    out.sort(key=lambda r: (-r["total_s"], r["name"]))
    return out


def profile_doc(rows, **meta) -> dict:
    """JSON artifact wrapping kernel-profile rows (``cosmodel report``)."""
    doc = {"kind": KERNEL_PROFILE_KIND}
    doc.update(meta)
    doc["rows"] = list(rows)
    return doc


def write_profile(rows, path, **meta) -> str:
    doc = profile_doc(rows, **meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return str(path)


def render_kernel_profile(doc_or_rows) -> str:
    """Human table of the per-handler wall-time attribution."""
    if isinstance(doc_or_rows, dict):
        rows = doc_or_rows.get("rows", [])
    else:
        rows = list(doc_or_rows)
    total = sum(r.get("total_s", 0.0) for r in rows) or float("nan")
    lines = [
        "kernel time profile (per-handler wall seconds)",
        f"{'handler':<40} {'events':>10} {'total_s':>9} {'share':>7}",
    ]
    for row in rows:
        total_s = row.get("total_s", 0.0)
        share = total_s / total if total == total and total > 0 else 0.0
        name = row["name"]
        if "calls" in row:  # a profile span: runs inside other events
            name = f"{name} ({row['calls']} calls)"
        lines.append(
            f"{name:<40} {row.get('events', 0):>10} "
            f"{total_s:>9.3f} {100.0 * share:>6.1f}%"
        )
    if rows:
        lines.append(f"{'total':<40} {'':>10} {total:>9.3f} {'100.0%':>7}")
    else:
        lines.append("(no profiled events)")
    return "\n".join(lines)
