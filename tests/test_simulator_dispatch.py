"""Kernel ordering semantics: typed-opcode dispatch vs dynamic callbacks.

The simulator's run loop dispatches ``(time, seq, opcode, a, b)`` events
through a flat handler table; opcode 0 is the dynamic-call path.
These tests pin the semantics the queueing layers depend on: total FIFO
ordering among simultaneous events regardless of scheduling API, exact
clock behaviour of ``run_until``, the runaway guard, rejection of
non-finite times, event-lane merging against the heap, and
bit-identical behaviour of the two dispatch styles on a recorded event
script.
"""

import numpy as np
import pytest

from repro.simulator import SimulationError, Simulator
from repro.simulator.rng import BufferedIntegers


class TestNonFiniteTimes:
    """Regression: ``delay < 0.0`` is False for NaN, so NaN/inf delays
    used to slip through validation and silently corrupt heap order."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_rejects_non_finite_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_op(bad, 0, lambda: None, ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_at_rejects_non_finite_time(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_op_at(bad, 0, lambda: None, ())

    def test_nothing_enqueued_on_rejection(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_run_until_rejects_nan_t_end(self):
        """A NaN window bound compares False against every event time;
        it must not be read as "no bound" and drain the whole queue."""
        sim = Simulator()
        fired = []
        sim.schedule_at(100.0, fired.append, "late")
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert fired == []
        assert sim.now == 0.0
        assert sim.pending_events == 1


class TestOrderingSemantics:
    def test_fifo_among_simultaneous_mixed_apis(self):
        """Schedule order is execution order at equal times, even when
        legacy and typed scheduling interleave."""
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append(a))
        sim.schedule(1.0, log.append, "legacy-0")
        sim.schedule_op(1.0, op, "typed-1")
        sim.schedule(1.0, log.append, "legacy-2")
        sim.schedule_op_at(1.0, op, "typed-3")
        sim.run_until_idle()
        assert log == ["legacy-0", "typed-1", "legacy-2", "typed-3"]

    def test_run_until_clock_lands_on_t_end_after_early_drain(self):
        """The heap draining before ``t_end`` must still leave
        ``now == t_end`` so window widths stay well-defined."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.run_until(7.5)
        assert fired == ["a"]
        assert sim.now == 7.5
        assert sim.pending_events == 0

    def test_max_events_guard_on_typed_loop(self):
        sim = Simulator()

        def tick(a, b):
            sim.schedule_op(1.0, op, a, b)

        op = sim.register(tick)
        sim.schedule_op(0.0, op)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_idle(max_events=50)


class TestDispatchEquivalence:
    """Opcode dispatch vs dynamic callbacks on a recorded event script."""

    @staticmethod
    def _script(seed: int = 1234, n: int = 400):
        """A reproducible script of (delay, tag, reschedule_delay) rows;
        ``reschedule_delay`` is None for leaf events and otherwise makes
        the handler schedule a follow-up, exercising the heapreplace
        fast path from inside a running handler."""
        rng = np.random.default_rng(seed)
        delays = rng.random(n) * 3.0
        follow = rng.random(n)
        return [
            (float(d), i, float(f * 0.5) if f < 0.3 else None)
            for i, (d, f) in enumerate(zip(delays, follow))
        ]

    def test_recorded_script_identical_logs(self):
        script = self._script()

        legacy = Simulator()
        log_legacy = []

        def handle_legacy(tag, reschedule):
            log_legacy.append((legacy.now, tag))
            if reschedule is not None:
                legacy.schedule(reschedule, handle_legacy, -tag, None)

        for delay, tag, reschedule in script:
            legacy.schedule(delay, handle_legacy, tag, reschedule)
        legacy.run_until_idle()

        typed = Simulator()
        log_typed = []

        def handle_typed(tag, reschedule):
            log_typed.append((typed.now, tag))
            if reschedule is not None:
                typed.schedule_op(reschedule, op, -tag, None)

        op = typed.register(handle_typed)
        for delay, tag, reschedule in script:
            typed.schedule_op(delay, op, tag, reschedule)
        typed.run_until_idle()

        assert log_legacy == log_typed
        assert legacy.now == typed.now

    def test_mixed_dispatch_matches_pure_legacy(self):
        """Alternating APIs for the same script changes nothing: seq
        assignment and heap order are API-independent."""
        script = self._script(seed=99, n=200)

        def run(use_typed_for_even: bool):
            sim = Simulator()
            log = []

            def handler(tag, _):
                log.append((sim.now, tag))

            op = sim.register(handler)
            for delay, tag, _ in script:
                if use_typed_for_even and tag % 2 == 0:
                    sim.schedule_op(delay, op, tag, None)
                else:
                    sim.schedule(delay, handler, tag, None)
            sim.run_until_idle()
            return log

        assert run(True) == run(False)


class TestBufferedIntegersResync:
    def test_buffered_draws_match_scalar_draws(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        buf = BufferedIntegers(a, bound=10, block=16)
        assert [buf.next() for _ in range(40)] == [
            int(b.integers(10)) for _ in range(40)
        ]

    def test_resync_hands_off_bit_identically(self):
        """After consuming part of a block, resync() leaves the wrapped
        stream exactly where per-call scalar draws would have."""
        a = np.random.default_rng(21)
        b = np.random.default_rng(21)
        buf = BufferedIntegers(a, bound=6, block=32)
        consumed = [buf.next() for _ in range(11)]
        buf.resync()
        expected = [int(b.integers(6)) for _ in range(11)]
        assert consumed == expected
        # Both streams must now produce identical direct draws.
        assert a.random(8).tolist() == b.random(8).tolist()


class TestEventLanes:
    """``schedule_runs`` keeps a sorted run as a cursor lane outside the
    heap; these pin its equivalence to per-event scheduling, the
    seq-block tie-break against heap events, run_until boundaries, and
    exception semantics."""

    def test_lane_matches_individual_scheduling(self):
        times = [0.5, 0.5, 1.25, 2.0, 2.0, 2.0]
        tags = list("abcdef")
        flags = [True, False, True, False, True, False]

        lane = Simulator()
        log_lane = []
        op = lane.register(lambda a, b: log_lane.append((lane.now, a, b)))
        lane.schedule_runs(np.array(times), op, tags, b_seq=flags)
        lane.run_until_idle()

        single = Simulator()
        log_single = []
        op = single.register(lambda a, b: log_single.append((single.now, a, b)))
        for t, tag, w in zip(times, tags, flags):
            single.schedule_op_at(t, op, tag, w)
        single.run_until_idle()

        assert log_lane == log_single

    def test_shared_b_payload(self):
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append((a, b)))
        sim.schedule_runs([1.0, 2.0], op, ["x", "y"], b="shared")
        sim.run_until_idle()
        assert log == [("x", "shared"), ("y", "shared")]

    def test_fifo_tie_break_against_heap_events(self):
        """A lane reserves its whole seq block at schedule time, so ties
        with heap events resolve by scheduling order -- exactly as if
        every lane event had been pushed individually."""
        for lane_first in (True, False):
            sim = Simulator()
            log = []
            op = sim.register(lambda a, b: log.append(a))
            if lane_first:
                sim.schedule_runs([1.0, 1.0], op, ["lane0", "lane1"])
                sim.schedule_op_at(1.0, op, "heap")
                expected = ["lane0", "lane1", "heap"]
            else:
                sim.schedule_op_at(1.0, op, "heap")
                sim.schedule_runs([1.0, 1.0], op, ["lane0", "lane1"])
                expected = ["heap", "lane0", "lane1"]
            sim.run_until_idle()
            assert log == expected, f"lane_first={lane_first}"

    def test_two_lanes_interleave_by_time_then_seq(self):
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append(a))
        sim.schedule_runs([1.0, 3.0], op, ["a0", "a1"])
        sim.schedule_runs([2.0, 3.0], op, ["b0", "b1"])
        sim.run_until_idle()
        assert log == ["a0", "b0", "a1", "b1"]

    def test_run_until_boundary_and_persistence(self):
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append(a))
        sim.schedule_runs([1.0, 2.0, 3.0], op, ["a", "b", "c"])
        assert sim.pending_events == 3
        sim.run_until(2.0)  # inclusive: events at exactly t_end fire
        assert log == ["a", "b"]
        assert sim.now == 2.0
        assert sim.pending_events == 1
        sim.run_until(10.0)  # the lane survives across run_until calls
        assert log == ["a", "b", "c"]
        assert sim.pending_events == 0

    def test_raising_handler_consumes_lane_event(self):
        sim = Simulator()
        log = []

        def handler(a, b):
            if a == "boom":
                raise RuntimeError("boom")
            log.append(a)

        op = sim.register(handler)
        sim.schedule_runs([1.0, 2.0, 3.0], op, ["ok", "boom", "after"])
        with pytest.raises(RuntimeError):
            sim.run_until_idle()
        # The faulting event was consumed; the run resumes after it,
        # matching heap-event semantics.
        sim.run_until_idle()
        assert log == ["ok", "after"]
        assert sim.pending_events == 0

    def test_rejects_length_mismatch_and_unsorted(self):
        sim = Simulator()
        op = sim.register(lambda a, b: None)
        with pytest.raises(SimulationError):
            sim.schedule_runs([1.0, 2.0], op, ["a"])
        with pytest.raises(SimulationError):
            sim.schedule_runs([2.0, 1.0], op, ["a", "b"])
        with pytest.raises(SimulationError):
            sim.schedule_runs(np.array([1.0, np.nan]), op, ["a", "b"])
        assert sim.pending_events == 0

    def test_lane_exhaustion_mid_drain(self):
        """A short lane drains while a longer lane and a heap event are
        still pending: the kernel drops the exhausted lane and keeps
        merging the rest in ``(time, seq)`` order."""
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append((sim.now, a)))
        sim.schedule_runs(np.array([1.0, 1.5]), op, np.array([0, 1]))
        sim.schedule_runs(np.array([4.0, 5.0]), op, np.array([10, 11]))
        sim.schedule_at(4.5, lambda: log.append((sim.now, "heap")))
        sim.run_until_idle()
        assert log == [(1.0, 0), (1.5, 1), (4.0, 10), (4.5, "heap"), (5.0, 11)]
        assert sim.pending_events == 0

    def test_empty_run_is_noop(self):
        sim = Simulator()
        op = sim.register(lambda a, b: None)
        sim.schedule_runs(np.array([]), op, [])
        assert sim.pending_events == 0
        sim.run_until_idle()


class TestMaxEventsBoundary:
    """``max_events`` is a budget on runaway loops, not a hard stop: a
    run that drains exactly at the budget completes cleanly."""

    def test_exactly_n_events_drain_cleanly(self):
        sim = Simulator()
        fired = []
        op = sim.register(lambda a, b: fired.append(a))
        for i in range(5):
            sim.schedule_op_at(float(i), op, i)
        assert sim.run_until_idle(max_events=5) == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_budget_exhausted_with_pending_raises(self):
        sim = Simulator()
        op = sim.register(lambda a, b: None)
        for i in range(5):
            sim.schedule_op_at(float(i), op, i)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_idle(max_events=4)

    def test_budget_counts_lane_events(self):
        sim = Simulator()
        op = sim.register(lambda a, b: None)
        sim.schedule_runs([1.0, 2.0, 3.0], op, ["a", "b", "c"])
        assert sim.run_until_idle(max_events=3) == 3

    def test_pending_lane_events_trip_the_guard(self):
        sim = Simulator()
        op = sim.register(lambda a, b: None)
        sim.schedule_runs([1.0, 2.0, 3.0], op, ["a", "b", "c"])
        with pytest.raises(SimulationError, match="2 still pending"):
            sim.run_until_idle(max_events=1)

    def test_exhausted_budget_leaves_rest_replayable(self):
        """The guard stops at exactly the budget; the remaining lane
        events stay pending and a resumed run processes them in order."""
        sim = Simulator()
        log = []
        op = sim.register(lambda a, b: log.append(a))
        sim.schedule_runs(np.arange(1.0, 11.0), op, np.arange(10))
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=4)
        assert log == [0, 1, 2, 3]
        assert sim.pending_events == 6
        assert sim.run_until_idle() == 6
        assert log == list(range(10))
