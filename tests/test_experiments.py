"""Tests for the experiment harness (scenarios, runner, figures, tables)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    SLAS,
    build_table1,
    build_table2,
    calibrate,
    figure_from_sweep,
    render_series,
    render_table,
    run_fig5,
    run_inversion_ablation,
    run_sweep,
    scenario_s1,
    scenario_s16,
)
from repro.experiments.reporting import format_percent


def tiny_scenario(n_be=1):
    """A minutes->seconds scaled scenario for harness tests."""
    base = scenario_s1() if n_be == 1 else scenario_s16()
    return dataclasses.replace(
        base,
        n_objects=20_000,
        warm_accesses=60_000,
        rates=(40.0, 100.0),
        window_duration=15.0,
        settle_duration=3.0,
    )


@pytest.fixture(scope="module")
def tiny_sweep():
    scenario = tiny_scenario()
    return run_sweep(scenario, seed=1, calibration=calibrate(scenario, disk_objects=800, parse_requests=50, seed=1))


class TestScenarios:
    def test_s1_s16_shapes(self):
        s1, s16 = scenario_s1(), scenario_s16()
        assert s1.cluster.processes_per_device == 1
        assert s16.cluster.processes_per_device == 16
        assert s1.slas == SLAS
        assert max(s16.rates) > max(s1.rates)

    def test_paper_scale_grids(self):
        s1 = scenario_s1("paper")
        assert min(s1.rates) == 10.0 and max(s1.rates) == 350.0
        assert s1.window_duration == 300.0
        s16 = scenario_s16("paper")
        assert max(s16.rates) == 600.0

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            scenario_s1("huge")

    def test_catalog_deterministic(self):
        a = scenario_s1().catalog()
        b = scenario_s1().catalog()
        assert np.array_equal(a.sizes, b.sizes)


class TestRunner:
    def test_sweep_structure(self, tiny_sweep):
        assert tiny_sweep.scenario == "S1"
        assert len(tiny_sweep.points) == 2
        assert tiny_sweep.models == ("ours", "odopr", "nowta")
        assert np.array_equal(tiny_sweep.rates, [40.0, 100.0])

    def test_observed_in_unit_interval(self, tiny_sweep):
        for sla in SLAS:
            obs = tiny_sweep.observed_series(sla)
            assert np.all((obs >= 0.0) & (obs <= 1.0))

    def test_predictions_monotone_in_sla(self, tiny_sweep):
        for model in tiny_sweep.models:
            for point in tiny_sweep.points:
                vals = [point.predicted[model][s] for s in SLAS]
                assert vals == sorted(vals)

    def test_error_accessors(self, tiny_sweep):
        errs = tiny_sweep.errors("ours", 0.05)
        best, worst, mean = tiny_sweep.abs_error_stats("ours", 0.05)
        assert best <= mean <= worst
        assert mean == pytest.approx(np.nanmean(np.abs(errs)))

    def test_point_error(self, tiny_sweep):
        p = tiny_sweep.points[0]
        assert p.error("ours", 0.05) == pytest.approx(
            p.predicted["ours"][0.05] - p.observed[0.05]
        )
        assert p.n_requests > 100


class TestFigures:
    def test_fig5(self, tmp_path):
        res = run_fig5(n_objects=400, n_grid=8)
        assert set(res.winners.values()) <= {"gamma", "normal"}
        for kind in ("index", "meta", "data"):
            rec, fit = res.recorded[kind], res.fitted[kind]
            assert np.all(np.diff(rec) >= -1e-9)
            assert np.abs(rec - fit).max() < 0.12
        text = res.render()
        assert "Fig 5" in text and "gamma" in text

    def test_figure_render(self, tiny_sweep):
        fig = figure_from_sweep("Fig 6 (S1)", tiny_sweep)
        text = fig.render(0.05)
        assert "observed" in text and "odopr" in text
        full = fig.render_all()
        assert full.count("Fig 6") == len(SLAS)


class TestTables:
    def test_table1_structure(self, tiny_sweep):
        t1 = build_table1({"S1": tiny_sweep})
        assert len(t1.rows) == 3
        val = t1.mean_error("S1", 0.05)
        assert 0.0 <= val <= 1.0
        assert "Table I" in t1.render()
        with pytest.raises(KeyError):
            t1.mean_error("S9", 0.05)

    def test_table2_structure(self, tiny_sweep):
        t2 = build_table2({"S1": tiny_sweep})
        assert t2.models == ("ours", "odopr", "nowta")
        assert "Table II" in t2.render()
        assert t2.error("S1", 0.1, "odopr") >= 0.0

    def test_union_operation_contribution(self, tiny_sweep):
        """The reproduction of the paper's headline: our model reduces
        ODOPR's error dramatically at the tight SLAs."""
        t2 = build_table2({"S1": tiny_sweep})
        for sla in (0.01, 0.05):
            assert t2.error("S1", sla, "ours") < t2.error("S1", sla, "odopr")


class TestAblations:
    def test_inversion_ablation(self):
        res = run_inversion_ablation()
        assert res.mean_abs_errors["euler"][0.05] == 0.0  # reference
        assert res.mean_abs_errors["talbot"][0.05] < 1e-3
        assert res.mean_abs_errors["gaver"][0.05] < 0.02
        assert "Ablation" in res.render()


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        out = render_series("x", [1.0, 2.0], {"y": [0.1, 0.2]})
        assert "x" in out and "y" in out

    def test_format_percent(self):
        assert format_percent(0.1234) == "12.34%"
        assert format_percent(float("nan")) == "--"


class TestRescaleServicePath:
    def test_sweep_with_online_service_rescaling(self):
        """The Section IV-B decomposition path: the runner re-derives
        per-operation means from the window's aggregate disk service
        time; on a drift-free testbed it must agree with the direct
        path to within sweep noise."""
        scenario = tiny_scenario()
        cal = calibrate(scenario, disk_objects=800, parse_requests=50, seed=2)
        plain = run_sweep(scenario, seed=2, calibration=cal)
        rescaled = run_sweep(scenario, seed=2, calibration=cal, rescale_service=True)
        for sla in (0.05, 0.1):
            a = plain.predicted_series("ours", sla)
            b = rescaled.predicted_series("ours", sla)
            mask = ~(np.isnan(a) | np.isnan(b))
            assert np.allclose(a[mask], b[mask], atol=0.12)


class TestWindowRule:
    """Every simulate-then-predict episode measures the window
    ``[t0, t1)`` with ``t1`` the clock when its window traffic ended (an
    open-loop trace stops at its last arrival, short of
    ``t0 + window_duration``) and reads every rate over the span its
    counters covered."""

    RATE = 60.0

    @pytest.fixture
    def clock_log(self, monkeypatch):
        """``(clock, per-device request counters)`` after each run_until."""
        from repro.simulator.cluster import Cluster

        log = []
        run_until = Cluster.run_until

        def logged(cluster, t_end):
            run_until(cluster, t_end)
            log.append((cluster.sim.now, [d.counters.requests for d in cluster.devices]))

        monkeypatch.setattr(Cluster, "run_until", logged)
        return log

    def test_redundancy_episode(self, clock_log):
        from repro.experiments.redundancy import _run_episode

        scenario = tiny_scenario()
        _, metrics, table, (t0, t1) = _run_episode(
            scenario, scenario.catalog(), self.RATE, 1, "kofn", 2
        )
        (t_traffic, counts), (t_drained, _) = clock_log[-2:]
        assert t1 == t_traffic < t0 + scenario.window_duration
        assert t_drained == t1 + 5.0
        assert len(table) and table.arrival.max() < t1
        for m, n in zip(metrics, counts):
            assert n > 0
            assert m.request_rate * (t1 - t0) == pytest.approx(n, rel=1e-12)

    def test_fault_episode(self, clock_log):
        from repro.experiments.faults import _run_episode

        scenario = tiny_scenario()
        _, phases, baseline, _ = _run_episode(
            scenario, scenario.catalog(), self.RATE, 1, "slow-disk", 2.0, install=True
        )
        t0, t1 = phases[0].start, phases[-1].end
        clocks = [t for t, _ in clock_log]
        # The baseline is read when the first (pre-fault) segment ends.
        t_before, counts = clock_log[clocks.index(t0) + 1]
        assert t_before < phases[0].end
        for m, n in zip(baseline, counts):
            assert n > 0
            assert m.request_rate * (t_before - t0) == pytest.approx(n, rel=1e-12)
        assert clocks[-2:] == [t1, t1 + 5.0]
        assert t1 < t0 + scenario.window_duration
