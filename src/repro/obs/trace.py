"""Per-request span tracing for the simulated system.

A :class:`Tracer` collects flat span/event records as the simulation
runs and writes them out as JSON Lines, one record per line.  The
simulator layers each hold an optional ``tracer`` reference (``None``
by default) and guard every emission with a single ``is not None``
check, so a run without a tracer does exactly the work it did before
the trace layer existed.  Tracers never consume randomness, so traced
and untraced runs are bit-identical in every simulated quantity.

**Head sampling.**  ``Tracer(rate, seed=..., cluster_index=...)`` keeps
only the requests whose id hashes under ``rate``: the decision is the
splitmix64 finalizer of ``rid ^ salt``, the salt a hash of ``(seed,
cluster_index)`` -- never wall clock, worker identity or a random
stream -- so the *same* requests are sampled however a fleet's clusters
are grouped into shards or worker processes.  The hash exists in
identical scalar (:func:`is_sampled`) and vectorised
(:func:`sample_mask`) forms, ``is_sampled(r) == sample_mask([r])[0]``
for every ``r``.  Each hook checks the cached decision for its request
id before it builds a record, so the simulator's hook sites are the
same at every rate.  The default rate 1.0 keeps every request; negative
ids (untagged disk operations outside a cluster) are never kept.

Record schema (keys are short because traces get large)::

    {"k": <kind>, "rid": <request id>, "t0": <start>, "t1": <end>,
     "ph": <fault phase tag>, ...kind-specific fields}

Kinds emitted by the wired simulator:

``admit``      request admitted at a frontend (marker, ``t0==t1``);
               ``fid``
``frontend``   frontend queueing + parse (``t0`` = arrival);  ``fid``
``accept``     connection pool wait, connect() -> accept();   ``dev``
``disk``       one disk operation;  ``dev``, ``op`` (index/meta/data/
               write), ``wait`` (queue wait), ``svc`` (service time)
``send``       one chunk written to the response stream; ``dev``,
               ``idx``, ``first``, ``last``
``request``    the whole request at completion, with the per-stage
               breakdown the model predicts (``accept_wait``,
               ``fe_sojourn``, ``be_response``) and ``dev``, ``write``
``timeout``    a frontend read timeout fired; ``attempt``, ``dev``
``phase``      the fault-phase tag changed (marker event, ``t0==t1``)

The ``ph`` tag is stamped from :attr:`Tracer.phase`, which the fault
experiment layer advances at each phase boundary (before/fault/
recovery), so every span is attributable to the health state of the
system when it happened.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Tracer",
    "is_sampled",
    "read_trace",
    "sample_mask",
    "sample_salt",
    "sample_threshold",
    "write_trace",
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


class Tracer:
    """Collects the records of head-sampled requests; write with
    :meth:`write`.

    ``rate`` is the sampled share of request ids (1.0, the default,
    traces every request); ``seed`` and ``cluster_index`` salt the hash.
    Decisions are precomputed in vectorised blocks (request ids are
    sequential per cluster) and the last one is cached, so a hook call
    costs an attribute compare before it appends one small dict to a
    list -- or returns, for an unsampled request.  ``phase`` is stamped
    into every record; fault experiments advance it at phase boundaries
    via :meth:`set_phase` (scheduled as ordinary kernel events, which
    touch no random stream).
    """

    __slots__ = ("events", "phase", "_emit", "rate", "salt", "threshold",
                 "_decisions", "_last_rid", "_last_on")

    _BLOCK = 8192

    def __init__(
        self, rate: float = 1.0, *, seed: int = 0, cluster_index: int = 0
    ) -> None:
        self.events: list[dict] = []
        self.phase: str = ""
        # Bound method cached once; the hooks append tens of thousands
        # of records per window.
        self._emit = self.events.append
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

    def set_phase(self, phase: str, now: float | None = None) -> None:
        """Advance the fault-phase tag (emits a ``phase`` marker)."""
        self.phase = phase
        if now is not None:
            self._emit({"k": "phase", "t0": now, "t1": now, "ph": phase})

    # ------------------------------------------------------------------
    # emission hooks (called from the simulator layers)
    # ------------------------------------------------------------------
    def admit_span(self, rid: int, fid: int, t: float) -> None:
        """Request admission at a frontend."""
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {"k": "admit", "rid": rid, "fid": fid, "t0": t, "t1": t,
                 "ph": self.phase}
            )

    def frontend_span(self, rid: int, fid: int, t0: float, t1: float) -> None:
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {"k": "frontend", "rid": rid, "fid": fid, "t0": t0, "t1": t1,
                 "ph": self.phase}
            )

    def accept_span(self, rid: int, dev: int, t0: float, t1: float) -> None:
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {"k": "accept", "rid": rid, "dev": dev, "t0": t0, "t1": t1,
                 "ph": self.phase}
            )

    def disk_span(
        self, tag: int, dev: int, op: str, t0: float, start: float, end: float
    ) -> None:
        if self._last_on if tag == self._last_rid else self.wants(tag):
            self._emit(
                {"k": "disk", "rid": tag, "dev": dev, "op": op, "t0": t0,
                 "t1": end, "wait": start - t0, "svc": end - start,
                 "ph": self.phase}
            )

    def send_span(
        self, rid: int, dev: int, idx: int, t0: float, t1: float,
        first: bool, last: bool,
    ) -> None:
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {"k": "send", "rid": rid, "dev": dev, "idx": idx, "t0": t0,
                 "t1": t1, "first": first, "last": last, "ph": self.phase}
            )

    def timeout_event(self, rid: int, dev: int, attempt: int, now: float) -> None:
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {"k": "timeout", "rid": rid, "dev": dev, "attempt": attempt,
                 "t0": now, "t1": now, "ph": self.phase}
            )

    def request_span(self, req) -> None:
        """The completed request with its per-stage breakdown."""
        rid = req.rid
        if self._last_on if rid == self._last_rid else self.wants(rid):
            self._emit(
                {
                    "k": "request",
                    "rid": rid,
                    "dev": req.device_id,
                    "t0": req.arrival_time,
                    "t1": req.first_byte_time,
                    "write": req.is_write,
                    "accept_wait": req.accept_wait,
                    "fe_sojourn": req.frontend_sojourn,
                    "be_response": req.backend_response,
                    "retries": req.retries,
                    "ph": self.phase,
                }
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def spans(self, kind: str | None = None) -> list[dict]:
        """Recorded events, optionally filtered by kind."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e["k"] == kind]

    def write(self, path) -> str:
        """Dump every record as JSON Lines; returns ``path``."""
        return write_trace(self.events, path)

    def clear(self) -> None:
        self.events.clear()


def write_trace(events: Iterable[dict], path) -> str:
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")))
            fh.write("\n")
    return str(path)


def read_trace(path) -> Iterator[dict]:
    """Yield the records of a JSONL trace file."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
