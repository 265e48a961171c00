"""Model-side diagnostics: inversion telemetry, tree introspection,
sweep event bus and per-stage error attribution.

The load-bearing contracts pinned here:

* cross-method disagreement on closed-form transforms (exponential,
  M/M/1) is below 1e-8, and the term-halving self-error estimate
  *bounds* the true error where a closed form exists;
* enabling diagnostics (ambient session, event bus)
  never changes a single output bit -- neither of a bare inversion nor
  of a full sweep;
* the per-stage error attribution satisfies its accounting identity
  ``sum(stage errors) - dispatch residual == end-to-end error`` exactly;
* silent repairs (monotone / NaN-at-denormal) are counted, and a repair
  above ``REPAIR_WARN_MASS`` raises :class:`RepairWarning`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest

from repro.distributions import (
    Convolution,
    Degenerate,
    Exponential,
    Gamma,
    Mixture,
    ZeroInflated,
)
from repro.experiments import calibrate, run_sweep, scenario_s1
from repro.experiments.attribution import (
    error_attribution,
    load_sweep_artifact,
    render_attribution,
    sweep_doc,
    sweep_from_doc,
    write_sweep_artifact,
)
from repro.laplace.inversion import (
    REPAIR_WARN_MASS,
    RepairWarning,
    invert_cdf,
    invert_pdf,
)
from repro.obs import (
    DiagnosticsSession,
    EventLog,
    current_session,
    describe_tree,
    follow,
    read_events,
    render_events,
    render_tree,
    tree_summary,
)
from repro.obs import diagnostics
from repro.obs.report import render_report
from repro.queueing.mm1 import MM1Queue


def num_eq(x, y) -> bool:
    x, y = float(x), float(y)
    return (math.isnan(x) and math.isnan(y)) or x == y


# ----------------------------------------------------------------------
# Inversion telemetry on closed-form transforms
# ----------------------------------------------------------------------


class TestInversionDiagnostics:
    def test_exponential_cross_method_and_self_error_bound(self):
        dist = Exponential(rate=3.0)
        t = np.linspace(0.01, 2.0, 40)
        with DiagnosticsSession() as diag:
            out = invert_cdf(dist, t)
        true_err = float(np.max(np.abs(out - (1.0 - np.exp(-3.0 * t)))))
        (rec,) = diag.records
        assert rec.cross_disagreement < 1e-8
        # The term-halving estimate must bound the true error.
        assert rec.self_error >= true_err
        assert rec.self_error < diagnostics.TOLERANCE
        assert not diag.flagged()

    def test_mm1_sojourn_matches_closed_form(self):
        q = MM1Queue(arrival_rate=8.0, service_rate=10.0)
        t = np.linspace(0.005, 1.5, 32)
        with DiagnosticsSession() as diag:
            out = invert_cdf(q.sojourn_time(), t)
        # M/M/1 sojourn time is Exponential(mu - lambda).
        true = 1.0 - np.exp(-2.0 * t)
        assert float(np.max(np.abs(out - true))) < 1e-8
        assert diag.records[0].cross_disagreement < 1e-8

    def test_mm1_waiting_matches_closed_form(self):
        q = MM1Queue(arrival_rate=8.0, service_rate=10.0)
        t = np.linspace(0.005, 1.5, 32)
        with DiagnosticsSession() as diag:
            out = invert_cdf(q.waiting_time(), t)
        # P(W <= t) = 1 - rho * exp(-(mu - lambda) t), atom 1-rho at 0.
        true = 1.0 - 0.8 * np.exp(-2.0 * t)
        assert float(np.max(np.abs(out - true))) < 1e-8
        assert diag.records[0].cross_disagreement < 1e-8

    def test_diagnostics_do_not_change_results(self):
        dist = Gamma(shape=2.5, rate=180.0)
        t = np.linspace(1e-4, 0.1, 64)
        plain_cdf = invert_cdf(dist, t)
        plain_pdf = invert_pdf(dist, t)
        with DiagnosticsSession() as diag:
            diag_cdf = invert_cdf(dist, t)
            diag_pdf = invert_pdf(dist, t)
        assert np.array_equal(plain_cdf, diag_cdf)
        assert np.array_equal(plain_pdf, diag_pdf)
        assert {r.kind for r in diag.records} == {"cdf", "pdf"}

    def test_memo_hit_attribution(self):
        dist = Exponential(rate=50.0)
        t = np.linspace(1e-3, 0.2, 16)
        with DiagnosticsSession() as diag:
            invert_cdf(dist, t)
            invert_cdf(dist, t)  # whole-result memo hit
        first, second = diag.records
        assert not first.cache_hit
        assert second.cache_hit
        # Repair counters are unknowable on a memo hit (nothing ran).
        assert math.isnan(second.repaired_mass)
        assert first.repaired_mass >= 0.0
        assert diag.summary()["n_cache_hits"] == 1

    def test_tolerance_flagging(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "TOLERANCE", 1e-15)
        with DiagnosticsSession() as diag:
            invert_cdf(Exponential(rate=3.0), np.linspace(0.01, 1.0, 8))
        assert diag.flagged()
        summary = diag.summary()
        assert summary["n_flagged"] == len(diag.flagged()) > 0

    def test_sessions_nest_innermost_wins(self):
        assert current_session() is None
        with DiagnosticsSession() as outer:
            with DiagnosticsSession() as inner:
                assert current_session() is inner
                invert_cdf(Exponential(rate=3.0), np.linspace(0.01, 1.0, 8))
            assert current_session() is outer
        assert current_session() is None
        assert len(inner) == 1 and len(outer) == 0

    def test_repair_warning_on_gibbs_ripple(self):
        # A bare discontinuity inverted without mollification rings hard
        # enough that the monotone repair moves visible mass.
        t = np.linspace(1e-4, 0.02, 60)
        with pytest.warns(RepairWarning, match="monotone repair"):
            with DiagnosticsSession() as diag:
                invert_cdf(Degenerate(0.005), t)
        (rec,) = diag.records
        assert rec.monotone_mass > REPAIR_WARN_MASS
        assert diag.summary()["total_repaired_mass"] > REPAIR_WARN_MASS

    def test_no_warning_on_smooth_transform(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RepairWarning)
            invert_cdf(Gamma(shape=2.0, rate=100.0), np.linspace(1e-4, 0.1, 64))


# ----------------------------------------------------------------------
# Distribution-tree introspection
# ----------------------------------------------------------------------


class TestTreeIntrospection:
    def _composite(self):
        disk = Gamma(shape=2.0, rate=200.0)  # shared across both branches
        a = Convolution((Exponential(rate=300.0), ZeroInflated(disk, 0.4)))
        b = Convolution((Degenerate(0.001), ZeroInflated(disk, 0.7)))
        return Mixture((a, b), (0.5, 0.5))

    def test_structure_and_sharing(self):
        dist = self._composite()
        root = describe_tree(dist)
        assert root.kind == "Mixture"
        assert root.n_nodes == 9
        assert [c.kind for c in root.children] == ["Convolution", "Convolution"]
        gammas = [
            n
            for conv in root.children
            for zi in conv.children
            for n in zi.children
            if n.kind == "Gamma"
        ]
        assert len(gammas) == 2
        assert all(g.token_reuse == 2 for g in gammas)

    def test_node_moments_and_atoms(self):
        root = describe_tree(self._composite())
        zi = root.children[0].children[1]
        assert zi.kind == "ZeroInflated"
        assert zi.atom_at_zero == pytest.approx(0.6)
        assert zi.mean == pytest.approx(0.4 * (2.0 / 200.0))
        exp = root.children[0].children[0]
        assert exp.kind == "Exponential" and exp.token_reuse == 1

    def test_render_and_summary(self):
        dist = self._composite()
        text = render_tree(dist)
        assert "Mixture" in text and "[shared x2]" in text
        assert "Gamma(Gamma" not in text  # leaf reprs are unwrapped
        depth1 = render_tree(dist, max_depth=1)
        assert "Gamma" not in depth1 and "..." in depth1
        summary = tree_summary(dist)
        assert summary["n_nodes"] == 9
        assert summary["n_shared_nodes"] == 2
        assert summary["kinds"] == {
            "Mixture": 1,
            "Convolution": 2,
            "Exponential": 1,
            "Degenerate": 1,
            "ZeroInflated": 2,
            "Gamma": 2,
        }


# ----------------------------------------------------------------------
# Sweep event bus
# ----------------------------------------------------------------------


class TestEventBus:
    def test_round_trip_and_rendering(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_started", scenario="S1", n_points=2)
            log.emit("point_queued", scenario="S1", index=0, rate=40.0)
            log.emit(
                "point_finished",
                scenario="S1",
                index=0,
                rate=40.0,
                wall_s=1.25,
                n_requests=321,
            )
            log.emit("sweep_finished", scenario="S1", n_finished=1)
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "sweep_started",
            "point_queued",
            "point_finished",
            "sweep_finished",
        ]
        assert all("t" in e and "pid" in e for e in events)
        text = render_events(events)
        assert "point_finished" in text and "rate=40" in text

    def test_unknown_event_kind_rejected(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            with pytest.raises(ValueError, match="unknown event"):
                log.emit("point_exploded")

    def test_truncated_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_started", scenario="S1")
        with open(path, "a") as fh:
            fh.write('{"event": "point_fin')  # torn mid-write
        events = read_events(path)
        assert len(events) == 1
        # A torn line *not* at the tail is corruption, not an in-flight
        # append -- that still raises.
        with open(path, "w") as fh:
            fh.write('{"torn\n{"event": "sweep_started", "t": 0, "pid": 1}\n')
        with pytest.raises(json.JSONDecodeError):
            read_events(path)

    def test_pickle_carries_path_not_descriptor(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("sweep_started", scenario="S1")
        clone = pickle.loads(pickle.dumps(log))
        clone.emit("sweep_finished", scenario="S1")
        clone.close()
        log.close()
        assert [e["event"] for e in read_events(path)] == [
            "sweep_started",
            "sweep_finished",
        ]

    def test_follow_once_and_to_completion(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_started", scenario="S1", n_points=1)
            log.emit("point_finished", scenario="S1", index=0, rate=40.0)
            log.emit("sweep_finished", scenario="S1", n_finished=1)
        once = list(follow(path, once=True))
        assert len(once) == 3
        # Live mode returns as soon as every started sweep has finished.
        live = list(follow(path, poll_interval=0.01, timeout=5.0))
        assert [e["event"] for e in live][-1] == "sweep_finished"

    def test_follow_missing_file_times_out_empty(self, tmp_path):
        assert list(follow(tmp_path / "never.jsonl", once=True)) == []


# ----------------------------------------------------------------------
# Diagnosed sweep: bit-identity, attribution identity, artifacts
# ----------------------------------------------------------------------


def _mini_scenario():
    return dataclasses.replace(
        scenario_s1(),
        n_objects=4_000,
        warm_accesses=10_000,
        rates=(40.0, 100.0),
        window_duration=4.0,
        settle_duration=1.0,
    )


@pytest.fixture(scope="module")
def mini_sweeps(tmp_path_factory):
    """One plain and one fully-instrumented run of the same mini sweep."""
    scenario = _mini_scenario()
    cal = calibrate(scenario, disk_objects=300, parse_requests=30, seed=3)
    plain = run_sweep(scenario, seed=7, calibration=cal)
    events = tmp_path_factory.mktemp("events") / "events.jsonl"
    diagnosed = run_sweep(
        scenario, seed=7, calibration=cal, events=str(events), diagnose=True
    )
    return plain, diagnosed, events


class TestDiagnosedSweep:
    def test_bit_identical_to_plain(self, mini_sweeps):
        plain, diagnosed, _ = mini_sweeps
        assert len(plain.points) == len(diagnosed.points)
        for a, b in zip(plain.points, diagnosed.points):
            assert a.rate == b.rate and a.n_requests == b.n_requests
            assert num_eq(a.max_utilization, b.max_utilization)
            for k in a.observed:
                assert num_eq(a.observed[k], b.observed[k])
            for m in a.predicted:
                for k in a.predicted[m]:
                    assert num_eq(a.predicted[m][k], b.predicted[m][k])
            # Stage means are recorded unconditionally and must agree too.
            assert a.observed_stages == b.observed_stages
            assert a.model_stages == b.model_stages

    def test_diagnostics_populated_and_clean(self, mini_sweeps):
        plain, diagnosed, _ = mini_sweeps
        assert all(p.diagnostics is None for p in plain.points)
        for p in diagnosed.points:
            assert p.diagnostics["n_calls"] > 0
            assert p.diagnostics["n_flagged"] == 0
            assert p.diagnostics["max_cross_disagreement"] < 1e-6
            assert p.diagnostics["max_self_error"] < 1e-6

    def test_attribution_identity(self, mini_sweeps):
        _, diagnosed, _ = mini_sweeps
        rows = error_attribution(diagnosed)
        assert len(rows) == len(diagnosed.points)
        for row in rows:
            assert abs(row.identity_gap) < 1e-12
            assert row.dominant_stage in row.errors
        text = render_attribution(diagnosed)
        assert "error attribution" in text and "worst point" in text

    def test_event_stream_complete(self, mini_sweeps):
        _, diagnosed, events = mini_sweeps
        kinds = [e["event"] for e in read_events(events)]
        assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_finished"
        assert kinds.count("point_queued") == len(diagnosed.points)
        assert kinds.count("point_started") == len(diagnosed.points)
        assert kinds.count("point_finished") == len(diagnosed.points)
        finished = [
            e for e in read_events(events) if e["event"] == "point_finished"
        ]
        assert all(e["wall_s"] > 0 and "diagnostics" in e for e in finished)

    def test_artifact_round_trip_and_report(self, mini_sweeps, tmp_path):
        _, diagnosed, _ = mini_sweeps
        doc = sweep_doc(diagnosed)
        rebuilt = sweep_from_doc(doc)
        assert rebuilt.scenario == diagnosed.scenario
        assert rebuilt.slas == diagnosed.slas
        for a, b in zip(diagnosed.points, rebuilt.points):
            for k in a.observed:
                assert num_eq(a.observed[k], b.observed[k])
            assert a.diagnostics == b.diagnostics
        path = tmp_path / "sweep.json"
        write_sweep_artifact(diagnosed, path)
        loaded = load_sweep_artifact(path)
        assert loaded.models == diagnosed.models
        report = render_report(str(path))
        assert "sweep artifact" in report
        assert "error attribution" in report
        assert "inversion diagnostics" in report

    def test_sweep_from_doc_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="not a sweep artifact"):
            sweep_from_doc({"kind": "something-else"})


class TestGracefulReport:
    def test_plain_artifact_without_manifest(self, tmp_path):
        path = tmp_path / "fig6.txt"
        path.write_text("rate  p(Y<=sla)\n40  0.99\n")
        out = render_report(str(path))
        assert "no manifest sidecar" in out
        assert "fig6.txt" in out

    def test_json_artifact_without_manifest(self, tmp_path):
        path = tmp_path / "blob.json"
        path.write_text(json.dumps({"hello": "world"}))
        out = render_report(str(path))
        assert "no manifest sidecar" in out
