"""Tests for the analytic model: union op, backend, frontend, system."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Degenerate, Exponential, Gamma
from repro.laplace.inversion import RepairWarning
from repro.model import (
    ACCEPT_WAIT_MODES,
    BackendModel,
    CacheMissRatios,
    DegradedLatencyModel,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    LatencyPercentileModel,
    MM1Model,
    NoWtaModel,
    OdoprModel,
    ParameterError,
    RedundantLatencyModel,
    SystemParameters,
    accept_wait,
    build_model,
    first_pass_operations,
    frontend_queueing_latency,
    odopr_parameters,
    union_operation_service,
)
from repro.queueing import MG1Queue, UnstableQueueError
from repro.simulator.faults import DiskSlowdown, FaultSchedule
from tests.test_redundant_reads import _skewed_params


class TestParameters:
    def test_extra_data_read_rate(self, device):
        assert device.extra_data_read_rate == pytest.approx(0.1)

    def test_disk_operation_rate(self, device):
        m = device.miss_ratios
        expected = 0.4 * 30 + 0.45 * 30 + 0.7 * 33
        assert device.disk_operation_rate == pytest.approx(expected)

    def test_data_rate_cannot_undershoot_request_rate(self, disk_profile):
        with pytest.raises(ParameterError):
            DeviceParameters(
                name="x",
                request_rate=10.0,
                data_read_rate=5.0,
                miss_ratios=CacheMissRatios(0, 0, 0),
                disk=disk_profile,
            )

    def test_miss_ratio_validation(self):
        with pytest.raises(ParameterError):
            CacheMissRatios(-0.1, 0.5, 0.5)
        with pytest.raises(ParameterError):
            CacheMissRatios(0.1, 1.5, 0.5)

    def test_scaled(self, device):
        scaled = device.scaled(2.0)
        assert scaled.request_rate == 60.0
        assert scaled.data_read_rate == 66.0
        assert scaled.miss_ratios == device.miss_ratios

    def test_system_scaled(self, system_params):
        scaled = system_params.scaled(0.5)
        assert scaled.total_request_rate == pytest.approx(
            0.5 * system_params.total_request_rate
        )

    def test_duplicate_device_names_rejected(self, device):
        with pytest.raises(ParameterError):
            SystemParameters(
                frontend=FrontendParameters(4, Degenerate(0.001)),
                devices=(device, device),
            )

    def test_device_lookup(self, system_params):
        assert system_params.device("dev2").name == "dev2"
        with pytest.raises(ParameterError):
            system_params.device("nope")


class TestUnionOperation:
    def test_mean_formula(self, device):
        """E[B] = parse + m_i b_i + m_m b_m + (1 + p) m_d b_d (paper)."""
        svc = union_operation_service(device)
        m = device.miss_ratios
        d = device.disk
        expected = (
            device.parse.mean
            + m.index * d.index.mean
            + m.meta * d.meta.mean
            + (1.0 + device.extra_data_read_rate) * m.data * d.data.mean
        )
        assert svc.mean == pytest.approx(expected)

    def test_transform_structure(self, device):
        """L[B] = L[parse] L[index] L[meta] L[data] exp(p(L[data]-1))."""
        svc = union_operation_service(device)
        parse, index, meta, data = first_pass_operations(device)
        s = np.array([3.0, 40.0 + 5.0j])
        p = device.extra_data_read_rate
        expected = (
            parse.laplace(s)
            * index.laplace(s)
            * meta.laplace(s)
            * data.laplace(s)
            * np.exp(p * (data.laplace(s) - 1.0))
        )
        assert np.allclose(svc.laplace(s), expected)

    def test_no_extra_reads_drops_compound(self, device):
        dev = dataclasses.replace(device, data_read_rate=device.request_rate)
        svc = union_operation_service(dev)
        parse, index, meta, data = first_pass_operations(dev)
        assert svc.mean == pytest.approx(
            parse.mean + index.mean + meta.mean + data.mean
        )


class TestBackendModel:
    def test_single_process_structure(self, device):
        be = BackendModel.solve(device)
        assert be.disk_sojourn is None
        assert 0.0 < be.utilization < 1.0
        # S_be mean = E[W] + first-pass mean.
        first = sum(d.mean for d in first_pass_operations(device))
        assert be.response_time.mean == pytest.approx(
            be.queue.mean_waiting_time + first
        )

    def test_multi_process_reduction(self, device):
        dev16 = dataclasses.replace(
            device, n_processes=16, request_rate=48.0, data_read_rate=52.8
        )
        be = BackendModel.solve(dev16)
        assert be.disk_sojourn is not None
        assert be.device.n_processes == 1
        assert be.device.request_rate == pytest.approx(48.0 / 16)
        # All three disk latencies replaced by the sojourn distribution.
        assert be.device.disk.index is be.device.disk.meta is be.device.disk.data

    def test_multi_process_disk_queue_variants_agree_roughly(self, device):
        dev = dataclasses.replace(
            device, n_processes=8, request_rate=60.0, data_read_rate=66.0
        )
        means = {
            dq: BackendModel.solve(dev, disk_queue=dq).response_time.mean
            for dq in ("mm1k", "mg1k", "finite-source")
        }
        vals = list(means.values())
        assert max(vals) < 3.0 * min(vals)

    def test_no_disk_ops_device(self, disk_profile):
        dev = DeviceParameters(
            name="cached",
            request_rate=100.0,
            data_read_rate=100.0,
            miss_ratios=CacheMissRatios.all_hits(),
            disk=disk_profile,
            parse=Degenerate(0.001),
            n_processes=4,
        )
        be = BackendModel.solve(dev)
        assert be.disk_sojourn is None
        assert be.response_time.mean == pytest.approx(
            be.queue.mean_waiting_time + 0.001
        )

    def test_unknown_disk_queue(self, device):
        with pytest.raises(ParameterError):
            BackendModel.solve(device, disk_queue="mmpp")

    def test_saturated_device_raises(self, device):
        hot = device.scaled(10.0)
        with pytest.raises(UnstableQueueError):
            BackendModel.solve(hot)


class TestFrontend:
    def test_sq_is_pk_sojourn(self):
        fe = FrontendParameters(10, Degenerate(0.001))
        sq = frontend_queueing_latency(fe, 500.0)
        from repro.queueing import MG1Queue

        ref = MG1Queue(50.0, Degenerate(0.001)).sojourn_time()
        t = np.array([0.002, 0.005, 0.02])
        assert np.allclose(sq.cdf(t), ref.cdf(t), atol=1e-6)

    def test_accept_wait_modes(self, device):
        be = BackendModel.solve(device)
        paper = accept_wait(be.waiting_time, "paper")
        none = accept_wait(be.waiting_time, "none")
        eq = accept_wait(be.waiting_time, "equilibrium")
        assert paper is be.waiting_time
        assert none.mean == 0.0
        assert eq.mean > 0.0
        with pytest.raises(ParameterError):
            accept_wait(be.waiting_time, "bogus")

    def test_equilibrium_mean_is_stationary_excess(self, device):
        """E[W_eq] = E[W^2] / (2 E[W]) for the renewal excess."""
        be = BackendModel.solve(device)
        w = be.waiting_time
        eq = accept_wait(w, "equilibrium")
        expected = w.second_moment / (2.0 * w.mean)
        assert eq.mean == pytest.approx(expected, rel=0.05)

    def test_all_modes_listed(self):
        assert set(ACCEPT_WAIT_MODES) == {"paper", "none", "equilibrium"}


class TestSystemModel:
    def test_percentile_monotone_in_sla(self, system_params):
        m = LatencyPercentileModel(system_params)
        slas = np.array([0.005, 0.01, 0.05, 0.1, 0.3])
        pcts = m.sla_percentiles(slas)
        assert np.all(np.diff(pcts) >= -1e-9)
        assert np.all((pcts >= 0.0) & (pcts <= 1.0))

    def test_percentile_decreases_with_load(self, system_params):
        lo = LatencyPercentileModel(system_params.scaled(0.5))
        hi = LatencyPercentileModel(system_params.scaled(1.5))
        assert lo.sla_percentile(0.05) > hi.sla_percentile(0.05)

    def test_equation_3_mixture(self, system_params):
        m = LatencyPercentileModel(system_params)
        sla = 0.05
        total = sum(d.request_rate for d in system_params.devices)
        weighted = sum(
            d.request_rate * m.device_sla_percentile(d.name, sla)
            for d in system_params.devices
        )
        assert m.sla_percentile(sla) == pytest.approx(weighted / total, abs=1e-6)

    def test_quantile_inverts_percentile(self, system_params):
        m = LatencyPercentileModel(system_params)
        q = 0.9
        t = m.latency_quantile(q)
        assert m.sla_percentile(t) == pytest.approx(q, abs=1e-3)

    def test_breakdown_components(self, system_params):
        m = LatencyPercentileModel(system_params)
        bd = m.breakdown()
        assert len(bd) == 4
        for row in bd:
            assert row.mean_total == pytest.approx(
                m.device_latency(row.device).mean, rel=1e-6
            )

    def test_max_stable_scale(self, system_params):
        m = LatencyPercentileModel(system_params)
        scale = m.max_stable_scale(tol=1e-3)
        assert scale > 1.0
        LatencyPercentileModel(system_params.scaled(scale * 0.99))
        with pytest.raises(UnstableQueueError):
            LatencyPercentileModel(system_params.scaled(scale * 1.01))

    def test_inversion_methods_agree(self, system_params):
        euler = LatencyPercentileModel(system_params, inversion="euler")
        talbot = LatencyPercentileModel(system_params, inversion="talbot")
        for sla in (0.01, 0.05, 0.1):
            assert euler.sla_percentile(sla) == pytest.approx(
                talbot.sla_percentile(sla), abs=5e-4
            )

    def test_unknown_device_raises(self, system_params):
        m = LatencyPercentileModel(system_params)
        with pytest.raises(ParameterError):
            m.device_latency("devX")


@pytest.fixture(scope="module")
def stable_scales():
    """Per shape: the skewed four-device set and its largest stable load."""
    scales = {}
    for n_processes in (1, 16):
        params = _skewed_params(n_processes)
        scales[n_processes] = (
            params,
            LatencyPercentileModel(params).max_stable_scale(tol=1e-6),
        )
    return scales


def _half_window_slowdown(params):
    """The degraded model over (0, 10) s with the least-loaded disk 2x
    slower for the first half."""
    schedule = FaultSchedule((DiskSlowdown(device=3, start=0.0, end=5.0, factor=2.0),))
    return DegradedLatencyModel(params, schedule, (0.0, 10.0))


class TestTowardSaturation:
    """Toward rho -> 1 the inverting models give CDF values that are
    finite, in [0, 1] and non-decreasing in the SLA, or raise
    :class:`UnstableQueueError`; up to 0.9 of the largest stable load
    neither the SLA values nor a p99 search warn of a repair."""

    SLAS = (0.01, 0.05, 0.1, 0.5, 2.0)

    @given(
        build=st.sampled_from(["base", "degraded"]),
        n_processes=st.sampled_from([1, 16]),
        # The load is ``1 - 10**gap`` of the largest stable multiplier.
        gap=st.floats(min_value=-5.0, max_value=-0.3),
    )
    @settings(max_examples=15, deadline=None)
    def test_finite_monotone_or_unstable(self, stable_scales, build, n_processes, gap):
        params, top = stable_scales[n_processes]
        load = 1.0 - 10.0**gap
        scaled = params.scaled(top * load)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RepairWarning)
            try:
                if build == "base":
                    model = LatencyPercentileModel(scaled)
                else:
                    model = _half_window_slowdown(scaled)
                answers = model.sla_percentiles(self.SLAS)
                p99 = model.latency_quantile(0.99)
            except UnstableQueueError:
                return
        assert np.all(np.isfinite(answers))
        assert np.all((answers >= 0.0) & (answers <= 1.0))
        assert np.all(np.diff(answers) >= 0.0)
        assert np.isfinite(p99) and p99 > 0.0
        if load <= 0.9:
            assert not any(issubclass(w.category, RepairWarning) for w in caught)


class TestFrontendQueueBuiltOnce:
    """Every request parses at the same frontend M/G/1 queue whatever its
    device (Section III-C), so a model builds ``S_q`` once, not once per
    device, and the diagnostics read the one the constructor built."""

    ROWS = ((("dev0", "dev1", "dev2"), 0.5), (("dev1", "dev2", "dev3"), 0.5))

    @pytest.fixture
    def sq_builds(self, monkeypatch, system_params):
        parse = system_params.frontend.parse
        original = MG1Queue.sojourn_time
        calls = []

        def counting(queue):
            if queue.service is parse:
                calls.append(queue.arrival_rate)
            return original(queue)

        monkeypatch.setattr(MG1Queue, "sojourn_time", counting)
        return calls

    @pytest.mark.parametrize(
        "build",
        [
            LatencyPercentileModel,
            lambda p: DegradedLatencyModel(
                p,
                FaultSchedule((DiskSlowdown(device=1, start=2.0, end=6.0, factor=1.5),)),
                (0.0, 10.0),
            ),
            lambda p: RedundantLatencyModel(p, strategy="single"),
            lambda p: RedundantLatencyModel(
                p, TestFrontendQueueBuiltOnce.ROWS, strategy="kofn", fanout=2
            ),
        ],
        ids=["base", "degraded", "single", "kofn@2"],
    )
    def test_one_build_per_construction(self, system_params, sq_builds, build):
        assert len(system_params.devices) == 4
        build(system_params)
        assert len(sq_builds) == 1

    def test_diagnostics_build_none(self, system_params, sq_builds):
        m = LatencyPercentileModel(system_params)
        m.breakdown()
        m.stage_means()
        assert len(sq_builds) == 1


class TestBaselines:
    def test_odopr_rewrites_parameters(self, system_params):
        rewritten = odopr_parameters(system_params)
        for dev in rewritten.devices:
            assert dev.miss_ratios.index == 0.0
            assert dev.miss_ratios.meta == 0.0
            assert dev.data_read_rate == dev.request_rate
            assert dev.miss_ratios.data > 0.0  # single read keeps its ratio

    def test_odopr_predicts_higher_percentiles(self, system_params):
        ours = LatencyPercentileModel(system_params)
        odopr = OdoprModel(system_params)
        for sla in (0.01, 0.05, 0.1):
            assert odopr.sla_percentile(sla) >= ours.sla_percentile(sla)

    def test_nowta_predicts_higher_percentiles(self, system_params):
        ours = LatencyPercentileModel(system_params)
        nowta = NoWtaModel(system_params)
        for sla in (0.01, 0.05, 0.1):
            assert nowta.sla_percentile(sla) >= ours.sla_percentile(sla)

    def test_mm1_baseline_runs(self, system_params):
        m = MM1Model(system_params)
        assert 0.0 < m.sla_percentile(0.05) < 1.0

    def test_build_model_dispatch(self, system_params):
        assert isinstance(build_model("ours", system_params), LatencyPercentileModel)
        assert isinstance(build_model("odopr", system_params), OdoprModel)
        with pytest.raises(ValueError):
            build_model("wrong", system_params)

    def test_nowta_equals_ours_with_none_mode(self, system_params):
        a = NoWtaModel(system_params)
        b = LatencyPercentileModel(system_params, accept_mode="none")
        assert a.sla_percentile(0.05) == pytest.approx(b.sla_percentile(0.05))
