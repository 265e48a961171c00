"""Discrete-event simulation kernel.

A single binary-heap event queue with monotonic tie-breaking.  Design
follows the HPC guides' advice for hot Python loops: one flat kernel,
``__slots__`` everywhere, no per-event object allocation beyond the heap
tuple, and all bulk math (sampling, metric reduction) pushed out to numpy
in the surrounding layers.

Events are ``(time, seq, opcode, a, b)`` tuples.  ``seq`` makes the
ordering total and FIFO among simultaneous events, which the FCFS
fidelity of the queueing layers depends on.  ``opcode`` indexes a flat
handler table registered at build time (:meth:`Simulator.register`); the
run loop dispatches ``handlers[opcode](a, b)`` with no per-event tuple
unpacking of argument lists and no closure allocation at the schedule
site.  Opcode 0 is the dynamic-call handler, so the
``schedule(delay, fn, *args)`` API serves cold paths (fault hooks,
tests, closed-loop drivers) without a registration step.

One run loop (:meth:`Simulator._run`) serves both :meth:`run_until` and
:meth:`run_until_idle`, with two exactly order-preserving mechanics:

* **Fused pop-then-push** (``heapreplace``): the run loop executes the
  minimum event *without popping it first*.  The first event scheduled
  from inside a handler replaces the in-flight root via ``heapreplace``
  (one sift instead of two); if the handler schedules nothing, the root
  is popped afterwards.  This is sound because every event scheduled
  from a handler carries ``time >= now`` and a strictly larger ``seq``,
  so the in-flight event remains the strict heap minimum until it is
  replaced.  The ubiquitous pop-then-push pattern (disk op completion
  scheduling the next op's completion) therefore costs one sift.
* **Event lanes** (:meth:`schedule_runs`): a sorted run -- an open-loop
  arrival trace -- is kept *outside* the heap as a cursor over flat
  time/payload lists (a "lane") that reserved its block of sequence
  numbers at schedule time.  The run loop takes whichever of the lane
  head and the heap root has the smaller ``(time, seq)`` key, so the
  event order is exactly what per-event pushes would have produced --
  but a lane event costs one cursor increment instead of an O(log n)
  heap sift, and scheduling the run costs one bulk list conversion
  instead of n tuple allocations.  Lane events dispatch one at a time,
  outside the ``heapreplace`` fusion (their handler's first schedule is
  a plain push, which preserves the total order).

The kernel is not re-entrant: handlers must not call ``run_until`` /
``run_until_idle`` recursively (nothing in the simulator does).
"""

from __future__ import annotations

import heapq
from itertools import repeat
from math import inf as _INF
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


class _Lane:
    """One consumable sorted run of typed events (see ``schedule_runs``).

    ``seq0 + cursor`` is the sequence number of the head event: the run
    reserved ``seq0 .. seq0 + n - 1`` when it was scheduled, so its
    events tie-break against heap events exactly as if each had been
    pushed individually.
    """

    __slots__ = ("times", "a", "b", "b_seq", "op", "seq0", "cursor", "n")

    def __init__(self, times, op, a, b, b_seq, seq0) -> None:
        self.times = times
        self.op = op
        self.a = a
        self.b = b
        self.b_seq = b_seq
        self.seq0 = seq0
        self.cursor = 0
        self.n = len(times)


class Simulator:
    """Minimal event-driven simulation kernel."""

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_handlers",
        "_live",
        "_lanes",
        "_names",
        "_prof",
        "_spans",
        "_span_cells",
        "_nested",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, int, object, object]] = []
        self._seq: int = 0
        # Opcode 0: dynamic call -- a == fn, b == args tuple.
        self._handlers: list[Callable] = [self._invoke]
        # True while the run loop is executing the (unpopped) heap root.
        self._live = False
        # Active event lanes (schedule_runs).  The list object is stable
        # for the simulator's lifetime: the run loop binds it once and
        # observes appends/removals through mutation.
        self._lanes: list[_Lane] = []
        # Per-opcode handler names (for the profiler's attribution
        # table) and the opt-in profile cells (None = profiling off and
        # the handler table unwrapped).
        self._names: list[str] = ["<dynamic>"]
        self._prof: list[list] | None = None
        # Profile spans: ``(owner, attr)`` call sites timed as rows of
        # their own (profile_span), their ``[name, calls, secs]`` cells,
        # and the running total of span seconds, which handler wrappers
        # subtract from their own row.
        self._spans: list[tuple[object, str]] = []
        self._span_cells: list[list] = []
        self._nested = [0.0]

    @staticmethod
    def _invoke(fn, args) -> None:
        fn(*args)

    def register(self, handler: Callable) -> int:
        """Register ``handler(a, b)`` in the dispatch table; returns its opcode.

        Components register their bound methods once at build time and
        schedule events by opcode thereafter, so the run loop performs a
        single list index instead of constructing and unpacking per-event
        argument tuples.
        """
        self._names.append(
            getattr(handler, "__qualname__", None) or repr(handler)
        )
        if self._prof is not None:
            # Profiling already on: wrap late registrations the same way
            # enable_profile wrapped the table it found.
            cell = [0, 0.0]
            self._prof.append(cell)
            handler = self._wrap(handler, cell, self._nested)
        self._handlers.append(handler)
        return len(self._handlers) - 1

    # ------------------------------------------------------------------
    # kernel time profiler (opt-in)
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(fn: Callable, cell: list, nested: list) -> Callable:
        def timed(a, b, _fn=fn, _cell=cell, _nested=nested, _pc=perf_counter):
            n0 = _nested[0]
            t0 = _pc()
            _fn(a, b)
            _cell[0] += 1
            _cell[1] += _pc() - t0 - (_nested[0] - n0)
        timed.__wrapped__ = fn
        return timed

    def _wrap_span(self, owner, attr: str) -> None:
        fn = getattr(owner, attr)
        cell = [getattr(fn, "__qualname__", None) or repr(fn), 0, 0.0]
        self._span_cells.append(cell)

        def timed(*args, _fn=fn, _cell=cell, _nested=self._nested, _pc=perf_counter):
            t0 = _pc()
            out = _fn(*args)
            dt = _pc() - t0
            _cell[1] += 1
            _cell[2] += dt
            _nested[0] += dt
            return out
        timed.__wrapped__ = fn
        setattr(owner, attr, timed)

    def profile_span(self, owner, attr: str) -> None:
        """Give calls through ``owner.<attr>`` a profile row of their own.

        For work a handler runs inline on behalf of another component
        (the backend's lazy maintenance scan inside ``connect``).  While
        profiling is on, the attribute holds a timing wrapper; its row is
        named after the callable's ``__qualname__`` and counts calls, and
        the enclosing handler's row excludes the time, so the rows still
        sum to the handler total.  With profiling off registration only
        records the site.
        """
        self._spans.append((owner, attr))
        if self._prof is not None:
            self._wrap_span(owner, attr)

    def enable_profile(self) -> "Simulator":
        """Switch on per-opcode wall-time attribution (idempotent).

        Every entry of the dispatch table is replaced in place by a
        timing wrapper (``perf_counter`` delta + event count), so the
        run loop stays untouched: profiling costs nothing when off and
        two clock reads per event when on.  Handlers registered after
        enabling are wrapped on registration; so are the call sites of
        :meth:`profile_span`.

        Wrappers change no simulated quantity -- event order, RNG
        consumption and handler effects are exactly those of the bare
        table -- so a profiled run is bit-identical to an unprofiled
        one.
        """
        if self._prof is not None:
            return self
        cells: list[list] = []
        for op, fn in enumerate(self._handlers):
            cell = [0, 0.0]
            cells.append(cell)
            self._handlers[op] = self._wrap(fn, cell, self._nested)
        self._prof = cells
        for owner, attr in self._spans:
            self._wrap_span(owner, attr)
        return self

    def profile_snapshot(self) -> list[dict]:
        """JSON-ready ``{name, events, total_s}`` rows, one per handler name.

        Per-instance registrations sharing a ``__qualname__`` (e.g. one
        opcode per frontend) collapse into one row; rows are sorted by
        total wall seconds descending.  A :meth:`profile_span` row runs
        inside other handlers' events, so it has ``events`` 0 (the
        ``events`` column still sums to the kernel's event count) and a
        ``calls`` count instead.  Empty list when profiling is off or no
        event has run yet.
        """
        if self._prof is None:
            return []
        by_name: dict[str, dict] = {}
        for name, (events, secs) in zip(self._names, self._prof):
            if events == 0:
                continue
            row = by_name.setdefault(
                name, {"name": name, "events": 0, "total_s": 0.0}
            )
            row["events"] += events
            row["total_s"] += secs
        for name, calls, secs in self._span_cells:
            if calls == 0:
                continue
            row = by_name.setdefault(
                name, {"name": name, "events": 0, "total_s": 0.0, "calls": 0}
            )
            row["calls"] += calls
            row["total_s"] += secs
        rows = list(by_name.values())
        rows.sort(key=lambda r: (-r["total_s"], r["name"]))
        return rows

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not 0.0 <= delay < _INF:
            # The chained comparison is False for NaN and both infinities,
            # which would otherwise corrupt heap ordering silently.
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._seq += 1
        event = (self.now + delay, self._seq, 0, fn, args)
        if self._live:
            self._live = False
            heapq.heapreplace(self._heap, event)
        else:
            heapq.heappush(self._heap, event)

    def schedule_at(self, time: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and >= now={self.now}, got {time}"
            )
        self._seq += 1
        event = (time, self._seq, 0, fn, args)
        if self._live:
            self._live = False
            heapq.heapreplace(self._heap, event)
        else:
            heapq.heappush(self._heap, event)

    def schedule_op(self, delay: float, op: int, a=None, b=None) -> None:
        """Typed-event sibling of :meth:`schedule`: dispatch by opcode."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        self._seq += 1
        event = (self.now + delay, self._seq, op, a, b)
        if self._live:
            self._live = False
            heapq.heapreplace(self._heap, event)
        else:
            heapq.heappush(self._heap, event)

    def schedule_op_at(self, time: float, op: int, a=None, b=None) -> None:
        """Typed-event sibling of :meth:`schedule_at`."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and >= now={self.now}, got {time}"
            )
        self._seq += 1
        event = (time, self._seq, op, a, b)
        if self._live:
            self._live = False
            heapq.heapreplace(self._heap, event)
        else:
            heapq.heappush(self._heap, event)

    def _sorted_times_list(self, times) -> list:
        """Validate a non-decreasing time sequence and return it as a list.

        Numpy arrays are validated vectorised (one comparison sweep, one
        bulk ``tolist``); any other sequence is checked element-wise.  A
        violation raises :class:`SimulationError` with nothing scheduled.
        """
        if isinstance(times, np.ndarray):
            if times.size == 0:
                return []
            if times.dtype != np.float64:
                times = times.astype(np.float64)
            # times[0] >= now rejects a leading NaN, the pairwise sweep
            # rejects interior NaNs and inversions, the last-element
            # bound rejects +inf (non-decreasing, so it bounds them all).
            if not (
                times[0] >= self.now
                and times[-1] < _INF
                and bool((times[1:] >= times[:-1]).all())
            ):
                raise SimulationError(
                    f"sorted schedule requires finite non-decreasing times "
                    f">= now={self.now}"
                )
            return times.tolist()
        out = list(times)
        prev = self.now
        for t in out:
            if not prev <= t < _INF:
                raise SimulationError(
                    f"sorted schedule requires finite non-decreasing times "
                    f">= now={self.now}, got {t} after {prev}"
                )
            prev = t
        return out

    def schedule_runs(self, times, op: int, a_seq, b=None, b_seq=None) -> None:
        """Schedule a non-decreasing run of ``op`` events as an event lane.

        Semantically identical to one :meth:`schedule_op_at` per
        ``(time, a)`` pair (the per-event second payload slot is
        ``b_seq[i]`` when ``b_seq`` is given, else the shared ``b``), but
        the run is kept as a cursor over flat lists instead of heap
        tuples: the block of sequence numbers is reserved up front, the
        run loop merges the lane head against the heap root by
        ``(time, seq)``, and consuming an event is a cursor increment.
        ``times`` must be non-decreasing (validated; a violation raises
        :class:`SimulationError` with nothing scheduled).
        ``times``/``a_seq``/``b_seq`` may be numpy arrays (bulk-converted)
        or plain sequences.  Lanes survive across ``run_until`` calls
        until drained.
        """
        times = self._sorted_times_list(times)
        n = len(times)
        a_seq = a_seq.tolist() if isinstance(a_seq, np.ndarray) else list(a_seq)
        if len(a_seq) != n:
            raise SimulationError(
                f"a_seq length {len(a_seq)} != times length {n}"
            )
        if b_seq is not None:
            b_seq = b_seq.tolist() if isinstance(b_seq, np.ndarray) else list(b_seq)
            if len(b_seq) != n:
                raise SimulationError(
                    f"b_seq length {len(b_seq)} != times length {n}"
                )
        if n == 0:
            return
        self._lanes.append(_Lane(times, op, a_seq, b, b_seq, self._seq + 1))
        self._seq += n

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def _min_lane(self) -> "_Lane":
        """The active lane with the smallest head ``(time, seq)`` key.

        Only called while ``self._lanes`` is non-empty; lanes are removed
        from the list the moment their last event is consumed, so every
        listed lane has a valid head.
        """
        lanes = self._lanes
        lane = lanes[0]
        if len(lanes) > 1:
            cur = lane.cursor
            bt, bs = lane.times[cur], lane.seq0 + cur
            for ln in lanes[1:]:
                c = ln.cursor
                t = ln.times[c]
                if t < bt or (t == bt and ln.seq0 + c < bs):
                    lane, bt, bs = ln, t, ln.seq0 + c
        return lane

    def _run(self, t_end: float, max_events: int | None) -> int:
        """Process events with ``time <= t_end`` in ``(time, seq)`` order.

        Returns the number of events processed.  ``max_events`` bounds
        the *budget*: the run raises :class:`SimulationError` only if the
        budget is exhausted while events are still pending, so a run of
        exactly ``max_events`` events completes cleanly.  An event whose
        handler raises is consumed before the exception propagates, so a
        resumed run does not replay it.
        """
        heap = self._heap
        handlers = self._handlers
        lanes = self._lanes
        pop = heapq.heappop
        # One loop step per event, drawn from ``repeat`` -- the cheapest
        # bounded iterator, with no per-step int object.  The count is
        # recovered from the seq counter and the pending set instead: an
        # event leaves the pending set only by being processed.  A budget
        # below 1 trips after the first event.
        if max_events is None:
            steps = repeat(None)
        else:
            steps = repeat(None, max(max_events, 1))
        pending0 = self.pending_events
        seq0 = self._seq
        try:
            for _ in steps:
                if lanes:
                    lane = self._min_lane()
                    cur = lane.cursor
                    lt = lane.times[cur]
                    take_heap = False
                    if heap:
                        root = heap[0]
                        rt = root[0]
                        take_heap = rt < lt or (
                            rt == lt and root[1] < lane.seq0 + cur
                        )
                    if take_heap:
                        if rt > t_end:
                            break
                        self.now = rt
                        self._live = True
                        handlers[root[2]](root[3], root[4])
                        if self._live:
                            self._live = False
                            pop(heap)
                    else:
                        if lt > t_end:
                            break
                        # Consume the lane event *before* dispatch: an
                        # exception inside the handler must not leave it
                        # replayable, matching the heap path's semantics.
                        b_seq = lane.b_seq
                        b = lane.b if b_seq is None else b_seq[cur]
                        lane.cursor = cur + 1
                        if cur + 1 == lane.n:
                            lanes.remove(lane)
                        self.now = lt
                        handlers[lane.op](lane.a[cur], b)
                elif heap:
                    event = heap[0]
                    if event[0] > t_end:
                        break
                    self.now = event[0]
                    self._live = True
                    handlers[event[2]](event[3], event[4])
                    if self._live:
                        self._live = False
                        pop(heap)
                else:
                    break
            else:
                if heap or lanes:
                    raise SimulationError(
                        f"processed max_events={max_events} events with "
                        f"{self.pending_events} still pending; runaway "
                        f"event loop?"
                    )
        except BaseException:
            if self._live:
                # The faulting event is still the heap root; consume it
                # so the error cannot replay on a resumed run.
                self._live = False
                pop(heap)
            raise
        return pending0 + self._seq - seq0 - self.pending_events

    def run_until(self, t_end: float) -> None:
        """Process events up to and including ``t_end``.

        The clock is left at ``t_end`` even if the queue drains earlier,
        so measurement windows have well-defined widths.  A NaN
        ``t_end`` raises :class:`SimulationError` with nothing processed.
        """
        if t_end != t_end:
            raise SimulationError("run_until requires a non-NaN t_end")
        self._run(t_end, None)
        if self.now < t_end:
            self.now = t_end

    def run_until_idle(self, *, max_events: int | None = None) -> int:
        """Drain every pending event; returns the number processed.

        ``max_events`` is the runaway guard's budget (see :meth:`_run`).
        """
        return self._run(_INF, max_events)

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled on this kernel (lane blocks
        reserve their sequence numbers up front, so they are included).
        After a drained run this equals the number of events processed
        over the simulator's lifetime -- the fleet benchmark's
        events-per-second numerator."""
        return self._seq

    @property
    def pending_events(self) -> int:
        # The in-flight event stays in the heap while its handler runs;
        # it is no longer pending.  Lane events are consumed (cursor
        # advanced) before dispatch, so lane remainders count as-is.
        n = len(self._heap) - (1 if self._live else 0)
        for lane in self._lanes:
            n += lane.n - lane.cursor
        return n
