"""Measurement plane of the simulator.

Collects three families of observations:

* **request records** -- one row per completed request (arrival time,
  response/full latency, per-stage waits, device id) stored in flat
  Python lists and exported as numpy arrays for vectorised reduction
  (per the HPC guides: accumulate cheaply, reduce in bulk);
* **disk-operation samples** -- (kind, service time) pairs feeding the
  Section IV calibration;
* the window utilities that turn request rows into the paper's
  "percentile of requests meeting SLA per 5-minute window" series.

Two latency stores are available.  ``latency_store="exact"`` keeps the
full per-request row list -- required by the golden tests and by any
reduction that windows rows by arrival time.  ``"histogram"`` streams
each completed request's latencies into bounded
:class:`~repro.obs.hist.LatencyHistogram` stores instead (one per
latency family), which is the right default for long heavy-traffic
runs: memory stays fixed no matter how many requests complete, and any
percentile remains answerable within one log-bucket width.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from scipy.special import ndtri as _ndtri

from repro.simulator.request import Request

__all__ = [
    "MetricsRecorder",
    "RequestTable",
    "PhaseStats",
    "HISTOGRAM_FAMILIES",
    "dispatch_imbalance",
    "merge_recorder_states",
    "sla_percentile",
    "sla_percentile_ci",
    "phase_attribution",
]


@dataclasses.dataclass(frozen=True)
class RequestTable:
    """Columnar view of completed requests."""

    arrival: np.ndarray
    response_latency: np.ndarray
    full_latency: np.ndarray
    accept_wait: np.ndarray
    frontend_sojourn: np.ndarray
    backend_response: np.ndarray
    device_id: np.ndarray
    n_chunks: np.ndarray
    is_write: np.ndarray
    retries: np.ndarray

    def __len__(self) -> int:
        return self.arrival.size

    def window(self, t_start: float, t_end: float) -> "RequestTable":
        """Rows whose *arrival* falls in ``[t_start, t_end)``."""
        mask = (self.arrival >= t_start) & (self.arrival < t_end)
        return RequestTable(
            *(getattr(self, f.name)[mask] for f in dataclasses.fields(self))
        )

    def for_device(self, device_id: int) -> "RequestTable":
        mask = self.device_id == device_id
        return RequestTable(
            *(getattr(self, f.name)[mask] for f in dataclasses.fields(self))
        )

    def reads(self) -> "RequestTable":
        mask = ~self.is_write
        return RequestTable(
            *(getattr(self, f.name)[mask] for f in dataclasses.fields(self))
        )

    def writes(self) -> "RequestTable":
        mask = self.is_write
        return RequestTable(
            *(getattr(self, f.name)[mask] for f in dataclasses.fields(self))
        )


def sla_percentile(latencies: np.ndarray, sla_seconds: float) -> float:
    """Observed fraction of requests meeting the SLA.

    An empty window carries NaN (not an exception): a windowed series
    over a saturated or timed-out tail can legitimately contain windows
    in which no request completed, and the :class:`PhaseStats` contract
    is that such windows propagate NaN statistics.
    """
    if latencies.size == 0:
        return float("nan")
    return float(np.count_nonzero(latencies <= sla_seconds)) / latencies.size


#: Memoised Wilson ``z`` values per confidence level.  The normal
#: quantile is pure in its argument and costs microseconds that add up
#: in the hot windowing loop (one CI per window per phase per sweep
#: point).
_Z_CACHE: dict[float, float] = {}


def _wilson_z(confidence: float) -> float:
    z = _Z_CACHE.get(confidence)
    if z is None:
        # Bit for bit what ``scipy.stats.norm.ppf(q)`` evaluates, without
        # importing scipy.stats: ``ndtri(q) * 1.0 + 0.0`` on [0, 1], else NaN.
        q = 0.5 + confidence / 2.0
        z = float(_ndtri(q) * 1.0 + 0.0) if 0.0 <= q <= 1.0 else math.nan
        _Z_CACHE[confidence] = z
    return z


def sla_percentile_ci(
    latencies: np.ndarray, sla_seconds: float, confidence: float = 0.95
) -> tuple[float, float, float]:
    """Observed SLA percentile with a Wilson score interval.

    Returns ``(estimate, lower, upper)``.  The Wilson interval behaves
    sensibly at the extremes (estimates of 0 or 1 still get non-trivial
    bounds), which matters for the near-saturation windows where almost
    nothing meets the SLA and for light-load windows where almost
    everything does.  An empty window returns ``(nan, nan, nan)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = latencies.size
    p = sla_percentile(latencies, sla_seconds)
    if math.isnan(p):
        return p, p, p
    z = _wilson_z(confidence)
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return p, max(0.0, centre - half), min(1.0, centre + half)


@dataclasses.dataclass(frozen=True)
class PhaseStats:
    """Per-phase observation summary (fault-injection attribution).

    One row per experiment phase (before/fault/recovery): the observed
    SLA percentile with its Wilson interval, plus the mean per-stage
    latency decomposition, so a fault's cost can be attributed to the
    stage it actually hits (accept-wait for stalls, backend response for
    slow disks, ...).  Empty phases carry NaN statistics.
    """

    phase: str
    t_start: float
    t_end: float
    n_requests: int
    sla_percentile: float
    ci_lower: float
    ci_upper: float
    mean_response_latency: float
    mean_accept_wait: float
    mean_frontend_sojourn: float
    mean_backend_response: float


def phase_attribution(
    table: RequestTable, phases, sla_seconds: float
) -> tuple[PhaseStats, ...]:
    """Summarise a request table over named time phases.

    ``phases`` is an iterable of ``(name, t_start, t_end)`` triples (or
    objects with those attributes, e.g. :class:`repro.simulator.faults
    .Phase`); rows are assigned by arrival time, matching the paper's
    per-window accounting.
    """
    out = []
    for phase in phases:
        if isinstance(phase, tuple):
            name, t0, t1 = phase
        else:
            name, t0, t1 = phase.name, phase.start, phase.end
        win = table.window(t0, t1)
        if len(win) == 0:
            nan = float("nan")
            out.append(
                PhaseStats(name, t0, t1, 0, nan, nan, nan, nan, nan, nan, nan)
            )
            continue
        est, lo, hi = sla_percentile_ci(win.response_latency, sla_seconds)
        out.append(
            PhaseStats(
                phase=name,
                t_start=t0,
                t_end=t1,
                n_requests=len(win),
                sla_percentile=est,
                ci_lower=lo,
                ci_upper=hi,
                mean_response_latency=float(win.response_latency.mean()),
                mean_accept_wait=float(win.accept_wait.mean()),
                mean_frontend_sojourn=float(win.frontend_sojourn.mean()),
                mean_backend_response=float(win.backend_response.mean()),
            )
        )
    return tuple(out)


#: Latency families kept by the histogram store, in breakdown order.
HISTOGRAM_FAMILIES = (
    "response",
    "full",
    "accept_wait",
    "frontend_sojourn",
    "backend_response",
)


def _new_strategy_stats() -> dict:
    """Fresh per-strategy attribution leaf (redundant read dispatch).

    ``strategy`` is ``None`` until the first redundant request lands and
    absorbs to ``"mixed"`` when recorders with different strategies are
    merged (a commutative semilattice join, so the merge stays exactly
    associative).  ``cancel_sum`` is the only float accumulator; its
    snapshot form is a *list* of leaf partial sums, same as the
    histogram sums, so merging never reassociates float additions.
    """
    return {
        "strategy": None,
        "requests": 0,
        "probes": 0,
        "aborted": 0,
        "wasted_chunks": 0,
        "cancel_count": 0,
        "cancel_sum": 0.0,
        "winners": {},
    }


def _merge_strategy_name(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    return "mixed"


def _new_dispatch_stats() -> dict:
    """Fresh dispatch-accounting leaf (frontend replica routing).

    One integer per device: how many read dispatches (single-replica
    sends plus redundant probes) the frontends aimed at it.  ``policy``
    names the cluster's dispatch policy; like the redundancy leaf's
    strategy it is ``None`` until noted and joins to ``"mixed"`` when
    recorders under different policies merge.  All counters are
    integers, so the fleet-shard merge stays exactly associative.
    """
    return {"policy": None, "dispatches": 0, "per_device": {}}


def dispatch_imbalance(per_device: dict, n_devices: int | None = None) -> float:
    """Load-imbalance coefficient: max/mean per-device dispatch share.

    ``1.0`` is perfect balance; ``n_devices`` (the coefficient's
    denominator population) should be passed when devices may have
    received zero dispatches -- the counts alone cannot name them, and
    ignoring empty devices *understates* imbalance.  NaN with no
    dispatches at all.
    """
    counts = list(per_device.values())
    total = sum(counts)
    if total == 0:
        return float("nan")
    n = len(per_device) if n_devices is None else n_devices
    return max(counts) * n / total


class MetricsRecorder:
    """Accumulates request completions and disk-op samples.

    ``latency_store`` selects the request accumulator: ``"exact"``
    keeps one row per request (windowable, golden-exact, unbounded
    memory); ``"histogram"`` streams each latency family into a bounded
    :class:`~repro.obs.hist.LatencyHistogram` instead (fixed memory,
    percentiles within one log-bucket width, mergeable across worker
    processes).  Histogram mode keeps no rows, so :meth:`requests`
    raises there -- reductions go through :meth:`histogram`.
    """

    __slots__ = (
        "_rows",
        "_disk_samples",
        "_disk_append",
        "record_disk_samples",
        "latency_store",
        "_hists",
        "_hist_buf",
        "_hist_count",
        "_strategy",
        "_dispatch",
    )

    #: Disk-op kinds preallocated at construction so the per-op hot path
    #: resolves a bound ``list.append`` with one dict lookup instead of
    #: a ``setdefault`` (allocating a throwaway empty list) per sample.
    #: Unknown kinds still work -- they get a slot on first use -- and
    #: every export point filters untouched (empty) kinds, so snapshots
    #: are canonically identical to the lazily-populated form.
    DISK_KINDS = ("data", "index", "meta")

    #: Histogram-mode request latencies are buffered per family and
    #: flushed through the vectorised ``LatencyHistogram.record_many``
    #: once this many requests accumulate (bounded memory, ~10x cheaper
    #: than five scalar ``record`` calls per request).
    HIST_FLUSH = 1024

    def __init__(
        self,
        *,
        record_disk_samples: bool = True,
        latency_store: str = "exact",
    ) -> None:
        if latency_store not in ("exact", "histogram"):
            raise ValueError(
                f"latency_store must be 'exact' or 'histogram', got {latency_store!r}"
            )
        self._rows: list[tuple] = []
        self._init_disk_slots()
        self.record_disk_samples = record_disk_samples
        self.latency_store = latency_store
        self._hists = None
        self._hist_buf = None
        self._hist_count = 0
        self._strategy = _new_strategy_stats()
        self._dispatch = _new_dispatch_stats()
        if latency_store == "histogram":
            from repro.obs.hist import LatencyHistogram

            self._hists = {name: LatencyHistogram() for name in HISTOGRAM_FAMILIES}
            self._hist_buf = [[] for _ in HISTOGRAM_FAMILIES]

    def _init_disk_slots(self) -> None:
        self._disk_samples = {k: [] for k in self.DISK_KINDS}
        self._disk_append = {k: v.append for k, v in self._disk_samples.items()}

    # ------------------------------------------------------------------
    def record_request(self, req: Request) -> None:
        if self._hists is not None:
            self._record_histogram(req)
            return
        self._rows.append(
            (
                req.arrival_time,
                req.response_latency,
                req.full_latency,
                req.accept_wait,
                req.frontend_sojourn,
                req.backend_response,
                req.device_id,
                req.n_chunks,
                req.is_write,
                req.retries,
            )
        )

    def _record_histogram(self, req: Request) -> None:
        buf = self._hist_buf
        # Clamp at zero: write-path rows can carry per-replica stage
        # timestamps that make individual breakdowns non-positive.
        buf[0].append(max(req.response_latency, 0.0))
        buf[1].append(max(req.full_latency, 0.0))
        buf[2].append(max(req.accept_wait, 0.0))
        buf[3].append(max(req.frontend_sojourn, 0.0))
        buf[4].append(max(req.backend_response, 0.0))
        self._hist_count += 1
        if len(buf[0]) >= self.HIST_FLUSH:
            self._flush_histograms()

    def _flush_histograms(self) -> None:
        """Drain the per-family buffers into the histograms.

        Called at the block boundary and before any read of the
        histograms, so queries always see every recorded request.  The
        flush cadence is a pure function of the record sequence, which
        keeps shard-vs-serial snapshot comparisons exact (every partial
        ``sum`` is accumulated over the same blocks on both sides).
        """
        hists = self._hists
        for name, vals in zip(HISTOGRAM_FAMILIES, self._hist_buf):
            if vals:
                hists[name].record_many(vals)
                vals.clear()

    def record_redundant(self, req: Request) -> None:
        """Per-strategy attribution for one finished redundant read.

        Called by the frontend once *every* probe of the request is
        terminal (completed or aborted), so wasted work and cancellation
        lag are final.  The latency row itself was already recorded by
        :meth:`record_request` when the parent completed.
        """
        red = req.red
        stats = self._strategy
        stats["strategy"] = _merge_strategy_name(stats["strategy"], red.strategy)
        stats["requests"] += 1
        stats["probes"] += len(red.probes)
        stats["aborted"] += red.aborted
        # Chunks served beyond what one clean single-replica read would
        # have needed: speculative losers, quorum stragglers, aborted
        # partial transfers.
        stats["wasted_chunks"] += max(0, red.total_chunks - req.n_chunks)
        stats["cancel_count"] += red.cancel_count
        stats["cancel_sum"] += red.cancel_latency_sum
        winners = stats["winners"]
        dev = red.winner_device
        winners[dev] = winners.get(dev, 0) + 1

    def note_dispatch_policy(self, policy: str) -> None:
        """Name the dispatch policy feeding :meth:`record_dispatch`.

        Called once by the cluster at construction; the name survives
        window resets (it is configuration, not observation) and joins
        to ``"mixed"`` across merges of differently-configured shards.
        """
        stats = self._dispatch
        stats["policy"] = _merge_strategy_name(stats["policy"], policy)

    def record_dispatch(self, device_id: int) -> None:
        """Count one read dispatch (single send or redundant probe)
        aimed at ``device_id``.  Wired as the frontends' ``on_dispatch``
        sink for *every* policy including ``random``: the call touches
        no random stream, so recording keeps the default bit-identical.
        """
        stats = self._dispatch
        stats["dispatches"] += 1
        per = stats["per_device"]
        per[device_id] = per.get(device_id, 0) + 1

    def dispatch_stats(self, n_devices: int | None = None) -> dict:
        """Copy of the dispatch leaf plus the derived imbalance
        coefficient (max/mean device share; see
        :func:`dispatch_imbalance` for the ``n_devices`` caveat)."""
        stats = self._dispatch
        return {
            "policy": stats["policy"],
            "dispatches": stats["dispatches"],
            "per_device": dict(stats["per_device"]),
            "imbalance": dispatch_imbalance(stats["per_device"], n_devices),
        }

    def redundant_stats(self) -> dict:
        """Copy of the per-strategy attribution leaf, with the mean
        post-cancel lag derived for convenience."""
        stats = self._strategy
        out = dict(stats)
        out["winners"] = dict(stats["winners"])
        count = stats["cancel_count"]
        out["mean_cancel_latency"] = (
            stats["cancel_sum"] / count if count else float("nan")
        )
        return out

    def record_disk_op(self, kind: str, service_time: float) -> None:
        if not self.record_disk_samples:
            return
        append = self._disk_append.get(kind)
        if append is None:
            append = self._disk_append[kind] = self._disk_samples.setdefault(
                kind, []
            ).append
        append(service_time)

    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        if self._hists is not None:
            return self._hist_count
        return len(self._rows)

    def histogram(self, family: str = "response"):
        """One latency family's :class:`LatencyHistogram` (histogram mode)."""
        if self._hists is None:
            raise RuntimeError(
                "recorder is in exact mode; construct with "
                "latency_store='histogram' for streaming histograms"
            )
        self._flush_histograms()
        try:
            return self._hists[family]
        except KeyError:
            raise KeyError(
                f"unknown latency family {family!r}; use one of {HISTOGRAM_FAMILIES}"
            ) from None

    def histograms(self) -> dict:
        """Every latency family's histogram (histogram mode only)."""
        if self._hists is None:
            raise RuntimeError("recorder is in exact mode; no histograms kept")
        self._flush_histograms()
        return dict(self._hists)

    def requests(self) -> RequestTable:
        if self._hists is not None:
            raise RuntimeError(
                "request rows are not kept in histogram mode; query "
                "histogram()/histograms() instead, or construct the "
                "recorder with latency_store='exact'"
            )
        if not self._rows:
            empty = np.empty(0)
            iempty = np.empty(0, dtype=int)
            return RequestTable(
                empty, empty, empty, empty, empty, empty,
                iempty, iempty, np.empty(0, dtype=bool), iempty,
            )
        cols = list(zip(*self._rows))
        return RequestTable(
            np.asarray(cols[0], dtype=float),
            np.asarray(cols[1], dtype=float),
            np.asarray(cols[2], dtype=float),
            np.asarray(cols[3], dtype=float),
            np.asarray(cols[4], dtype=float),
            np.asarray(cols[5], dtype=float),
            np.asarray(cols[6], dtype=int),
            np.asarray(cols[7], dtype=int),
            np.asarray(cols[8], dtype=bool),
            np.asarray(cols[9], dtype=int),
        )

    def disk_samples(self, kind: str) -> np.ndarray:
        return np.asarray(self._disk_samples.get(kind, ()), dtype=float)

    def disk_mark(self) -> dict[str, int]:
        """Snapshot sample counts; pair with :meth:`disk_samples_since`
        to window disk observations (Section IV-B online aggregates).
        Preallocated-but-untouched kinds are omitted, matching the
        lazily-populated historical form."""
        return {
            kind: len(samples)
            for kind, samples in self._disk_samples.items()
            if samples
        }

    def disk_samples_since(self, mark: dict[str, int]) -> dict[str, np.ndarray]:
        """Per-kind samples recorded after ``mark`` was taken."""
        out = {}
        for kind, samples in self._disk_samples.items():
            if not samples:
                continue
            start = mark.get(kind, 0)
            out[kind] = np.asarray(samples[start:], dtype=float)
        return out

    def disk_sample_kinds(self) -> list[str]:
        return sorted(k for k, v in self._disk_samples.items() if v)

    def clear_requests(self) -> None:
        """Drop request rows (window boundaries) but keep disk samples."""
        self._rows.clear()
        self._strategy = _new_strategy_stats()
        self._reset_dispatch()
        self._reset_histograms()

    def clear(self) -> None:
        self._rows.clear()
        self._init_disk_slots()
        self._strategy = _new_strategy_stats()
        self._reset_dispatch()
        self._reset_histograms()

    def _reset_dispatch(self) -> None:
        policy = self._dispatch["policy"]
        self._dispatch = _new_dispatch_stats()
        self._dispatch["policy"] = policy

    def _reset_histograms(self) -> None:
        if self._hists is not None:
            from repro.obs.hist import LatencyHistogram

            self._hists = {name: LatencyHistogram() for name in HISTOGRAM_FAMILIES}
            self._hist_buf = [[] for _ in HISTOGRAM_FAMILIES]
            self._hist_count = 0

    # ------------------------------------------------------------------
    # live telemetry snapshots (read-only; repro.obs.telemetry)
    # ------------------------------------------------------------------
    def live_hist_counts(self) -> dict:
        """Per-family cumulative bucket counts *including* unflushed
        values, without flushing (histogram mode only).

        Mid-run telemetry must not call :meth:`_flush_histograms`: an
        early flush regroups the float partial sums (``sum`` is
        accumulated per ``record_many`` block), which would break the
        bit-identity of the final state against an unobserved run.  This
        method instead bins the pending buffer into a throwaway
        histogram and adds the counts -- integer arithmetic only, the
        recorder is untouched.
        """
        if self._hists is None:
            raise RuntimeError("recorder is in exact mode; no histograms kept")
        from repro.obs.hist import LatencyHistogram

        out = {}
        for i, name in enumerate(HISTOGRAM_FAMILIES):
            hist = self._hists[name]
            pending = self._hist_buf[i]
            counts = hist._counts
            if pending:
                tmp = LatencyHistogram(
                    hist.min_value, hist.max_value, hist.buckets_per_decade
                )
                tmp.record_many(pending)
                counts = counts + tmp._counts
            nz = np.flatnonzero(counts)
            out[name] = {
                "count": hist.count + len(pending),
                "counts": {int(j): int(counts[j]) for j in nz},
            }
        return out

    def rows_mark(self) -> int:
        """Current row count; pair with :meth:`rows_values_since`."""
        return len(self._rows)

    def rows_values_since(self, mark: int) -> tuple[int, dict]:
        """Per-family latency values of rows recorded after ``mark``
        (exact mode only; read-only).  Returns ``(new_mark, values)``.
        Values are clamped at zero, matching the histogram store's
        convention, so live views agree across store modes."""
        if self._hists is not None:
            raise RuntimeError(
                "request rows are not kept in histogram mode; use "
                "live_hist_counts() instead"
            )
        rows = self._rows[mark:]
        out: dict[str, np.ndarray] = {}
        if rows:
            cols = list(zip(*rows))
            for i, name in enumerate(HISTOGRAM_FAMILIES):
                out[name] = np.maximum(
                    np.asarray(cols[1 + i], dtype=float), 0.0
                )
        else:
            for name in HISTOGRAM_FAMILIES:
                out[name] = np.empty(0)
        return len(self._rows), out

    # ------------------------------------------------------------------
    # shard state export / merge (fleet execution)
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Picklable snapshot of everything this recorder accumulated.

        The snapshot is the unit of cross-process metric reduction: a
        fleet shard ships one per cluster back to the parent, which
        combines them with :func:`merge_recorder_states` and rebuilds a
        recorder via :meth:`from_state`.  Histogram sums are kept as a
        *list* of partial sums (one entry per source recorder) rather
        than a folded scalar, so merging stays exactly associative --
        float addition is not, but the list concatenation is, and
        :meth:`from_state` reduces it with :func:`math.fsum`, which is
        correctly rounded regardless of grouping or order.
        """
        if self._hists is not None:
            self._flush_histograms()
        stats = self._strategy
        state = {
            "latency_store": self.latency_store,
            "record_disk_samples": self.record_disk_samples,
            "rows": list(self._rows),
            "disk": {k: list(v) for k, v in self._disk_samples.items() if v},
            "hist_count": self._hist_count,
            "hists": None,
            "redundant": {
                "strategy": stats["strategy"],
                "requests": stats["requests"],
                "probes": stats["probes"],
                "aborted": stats["aborted"],
                "wasted_chunks": stats["wasted_chunks"],
                "cancel_count": stats["cancel_count"],
                # Zero partial sums are dropped so a recorder that saw no
                # cancellations exports the same canonical leaf whether it
                # is fresh, rebuilt, or a merge of many idle shards.
                "cancel_sums": (
                    [stats["cancel_sum"]] if stats["cancel_sum"] != 0.0 else []
                ),
                "winners": {d: stats["winners"][d] for d in sorted(stats["winners"])},
            },
            "dispatch": {
                "policy": self._dispatch["policy"],
                "dispatches": self._dispatch["dispatches"],
                "per_device": {
                    d: self._dispatch["per_device"][d]
                    for d in sorted(self._dispatch["per_device"])
                },
            },
        }
        if self._hists is not None:
            hists = {}
            for name, hist in self._hists.items():
                doc = hist.to_dict()
                doc["sums"] = [doc.pop("sum")]
                hists[name] = doc
            state["hists"] = hists
        return state

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRecorder":
        """Rebuild a recorder from a :meth:`state` (or merged) snapshot."""
        rec = cls(
            record_disk_samples=state["record_disk_samples"],
            latency_store=state["latency_store"],
        )
        rec._rows = [tuple(r) for r in state["rows"]]
        for kind, vals in state["disk"].items():
            if kind in rec._disk_samples:
                rec._disk_samples[kind].extend(vals)
            else:
                rec._disk_samples[kind] = list(vals)
                rec._disk_append[kind] = rec._disk_samples[kind].append
        rec._hist_count = int(state["hist_count"])
        red = state.get("redundant")
        if red is not None:
            stats = rec._strategy
            stats["strategy"] = red["strategy"]
            for key in ("requests", "probes", "aborted", "wasted_chunks",
                        "cancel_count"):
                stats[key] = int(red[key])
            stats["cancel_sum"] = math.fsum(red["cancel_sums"])
            stats["winners"] = {int(d): int(c) for d, c in red["winners"].items()}
        disp = state.get("dispatch")
        if disp is not None:
            rec._dispatch = {
                "policy": disp["policy"],
                "dispatches": int(disp["dispatches"]),
                "per_device": {
                    int(d): int(c) for d, c in disp["per_device"].items()
                },
            }
        if state["hists"] is not None:
            from repro.obs.hist import LatencyHistogram

            rec._hists = {
                name: LatencyHistogram.from_dict(
                    {**doc, "sum": math.fsum(doc["sums"])}
                )
                for name, doc in state["hists"].items()
            }
        return rec


_HIST_GEOMETRY = ("min_value", "max_value", "buckets_per_decade")


def merge_recorder_states(states) -> dict:
    """Combine recorder snapshots into one canonical merged snapshot.

    The merge is **associative, commutative and order-independent**:

    * request rows and disk samples are multiset unions, canonicalised
      by sorting (rows by their full tuple, samples by value);
    * histogram bucket counts add (integer, exactly associative);
    * histogram sums concatenate as lists of leaf partial sums, sorted
      for canonical equality, and are only folded to a scalar -- with
      the order-insensitive ``math.fsum`` -- when a recorder is rebuilt.

    So ``merge(merge(a, b), c) == merge(a, merge(b, c)) == merge(c, a,
    b)`` exactly, which is what makes a sharded fleet run's metrics
    bit-identical to the serial run's no matter how clusters were
    grouped into shards.  The output is itself a valid snapshot for
    :meth:`MetricsRecorder.from_state` or further merging.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one recorder state to merge")
    store = states[0]["latency_store"]
    record_disk = states[0]["record_disk_samples"]
    for s in states[1:]:
        if s["latency_store"] != store or s["record_disk_samples"] != record_disk:
            raise ValueError(
                "cannot merge recorder states with different store modes"
            )

    rows: list[tuple] = []
    for s in states:
        rows.extend(tuple(r) for r in s["rows"])
    rows.sort()

    disk: dict[str, list[float]] = {}
    for s in states:
        for kind, vals in s["disk"].items():
            disk.setdefault(kind, []).extend(vals)
    for vals in disk.values():
        vals.sort()

    hists = None
    if store == "histogram":
        hists = {}
        for name in HISTOGRAM_FAMILIES:
            docs = [s["hists"][name] for s in states]
            geometry = {k: docs[0][k] for k in _HIST_GEOMETRY}
            counts: dict[int, int] = {}
            count = 0
            sums: list[float] = []
            for doc in docs:
                if any(doc[k] != geometry[k] for k in _HIST_GEOMETRY):
                    raise ValueError(
                        "cannot merge histograms with different geometry"
                    )
                for i, c in doc["counts"].items():
                    counts[i] = counts.get(i, 0) + c
                count += doc["count"]
                sums.extend(doc["sums"])
            sums.sort()
            hists[name] = {
                **geometry,
                "count": count,
                "sums": sums,
                "counts": {i: counts[i] for i in sorted(counts)},
            }

    # Per-strategy redundancy leaf: integer adds, winner-count adds with
    # sorted keys, cancel partial-sum concatenation (sorted, folded only
    # at from_state with fsum) -- the same algebra as the histograms, so
    # the whole snapshot merge stays associative and order-independent.
    # States predating the leaf merge as empty.
    _empty = _new_strategy_stats()
    del _empty["cancel_sum"]
    _empty["cancel_sums"] = []
    red_docs = [s.get("redundant", _empty) for s in states]
    strategy = None
    for doc in red_docs:
        strategy = _merge_strategy_name(strategy, doc["strategy"])
    winners: dict[int, int] = {}
    cancel_sums: list[float] = []
    for doc in red_docs:
        for d, c in doc["winners"].items():
            winners[d] = winners.get(d, 0) + c
        cancel_sums.extend(doc["cancel_sums"])
    cancel_sums.sort()
    redundant = {
        "strategy": strategy,
        "requests": sum(doc["requests"] for doc in red_docs),
        "probes": sum(doc["probes"] for doc in red_docs),
        "aborted": sum(doc["aborted"] for doc in red_docs),
        "wasted_chunks": sum(doc["wasted_chunks"] for doc in red_docs),
        "cancel_count": sum(doc["cancel_count"] for doc in red_docs),
        "cancel_sums": cancel_sums,
        "winners": {d: winners[d] for d in sorted(winners)},
    }

    # Dispatch leaf: policy semilattice join + pure integer adds with
    # sorted device keys.  States predating the leaf merge as empty.
    disp_docs = [s.get("dispatch", _new_dispatch_stats()) for s in states]
    policy = None
    per_device: dict[int, int] = {}
    for doc in disp_docs:
        policy = _merge_strategy_name(policy, doc["policy"])
        for d, c in doc["per_device"].items():
            per_device[d] = per_device.get(d, 0) + c
    dispatch = {
        "policy": policy,
        "dispatches": sum(doc["dispatches"] for doc in disp_docs),
        "per_device": {d: per_device[d] for d in sorted(per_device)},
    }

    return {
        "latency_store": store,
        "record_disk_samples": record_disk,
        "rows": rows,
        "disk": {k: disk[k] for k in sorted(disk)},
        "hist_count": sum(s["hist_count"] for s in states),
        "hists": hists,
        "redundant": redundant,
        "dispatch": dispatch,
    }
