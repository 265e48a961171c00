"""Per-request span tracing for the simulated system.

A :class:`Tracer` collects flat span/event records as the simulation
runs and writes them out as JSON Lines, one record per line.  The
simulator layers each hold an optional ``tracer`` reference (``None``
by default) and guard every emission with a single ``is not None``
check, so a run without a tracer does exactly the work it did before
the trace layer existed.  Tracers never consume randomness, so traced
and untraced runs are bit-identical in every simulated quantity.

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

__all__ = ["Tracer", "read_trace", "write_trace"]


class Tracer:
    """Collects trace records in memory; write with :meth:`write`.

    The emit path is deliberately primitive -- append one small dict to
    a list -- so that enabling tracing costs O(1) python work per span
    and nothing else.  ``phase`` is stamped into every record; fault
    experiments advance it at phase boundaries via :meth:`set_phase`
    (scheduled as ordinary kernel events, which touch no random stream).
    """

    __slots__ = ("events", "phase", "_emit")

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.phase: str = ""
        # Bound method cached once; the hook sites call ``tracer.emit``
        # tens of thousands of times per window.
        self._emit = self.events.append

    # ------------------------------------------------------------------
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
        self._emit(
            {"k": "admit", "rid": rid, "fid": fid, "t0": t, "t1": t,
             "ph": self.phase}
        )

    def frontend_span(self, rid: int, fid: int, t0: float, t1: float) -> None:
        self._emit(
            {"k": "frontend", "rid": rid, "fid": fid, "t0": t0, "t1": t1,
             "ph": self.phase}
        )

    def accept_span(self, rid: int, dev: int, t0: float, t1: float) -> None:
        self._emit(
            {"k": "accept", "rid": rid, "dev": dev, "t0": t0, "t1": t1,
             "ph": self.phase}
        )

    def disk_span(
        self, tag: int, dev: int, op: str, t0: float, start: float, end: float
    ) -> None:
        self._emit(
            {"k": "disk", "rid": tag, "dev": dev, "op": op, "t0": t0,
             "t1": end, "wait": start - t0, "svc": end - start,
             "ph": self.phase}
        )

    def send_span(
        self, rid: int, dev: int, idx: int, t0: float, t1: float,
        first: bool, last: bool,
    ) -> None:
        self._emit(
            {"k": "send", "rid": rid, "dev": dev, "idx": idx, "t0": t0,
             "t1": t1, "first": first, "last": last, "ph": self.phase}
        )

    def timeout_event(self, rid: int, dev: int, attempt: int, now: float) -> None:
        self._emit(
            {"k": "timeout", "rid": rid, "dev": dev, "attempt": attempt,
             "t0": now, "t1": now, "ph": self.phase}
        )

    def request_span(self, req) -> None:
        """The completed request with its per-stage breakdown."""
        self._emit(
            {
                "k": "request",
                "rid": req.rid,
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
