"""The compiled evaluation plan against the distribution trees it replaces.

A :class:`~repro.model.plan.SystemPlan` evaluates the Equation-3 mixture
as one array program over device classes.  Over drawn device sets --
``N_be`` 1, 4 and 16, miss ratios of exactly 0 and 1, no extra reads,
both accept-wait modes, shared and distinct disk laws, a heterogeneous
frontend, and the degraded predictor's slowdown, fail-stop, stall and
cold classes -- its transform must match the per-class tree mixture at
Euler nodes, its mean and zero atom must equal the tree's, and it must
refuse exactly the sets whose trees would not solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions import Degenerate, Gamma, Mixture, Uniform
from repro.laplace.euler import euler_nodes
from repro.model import (
    BackendModel,
    CacheMissRatios,
    DegradedLatencyModel,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    HeterogeneousFrontendParameters,
    LatencyPercentileModel,
    RedundantLatencyModel,
    SystemParameters,
)
from repro.model.plan import SystemPlan
from repro.model.system import _device_classes
from repro.queueing import UnstableQueueError
from repro.simulator.faults import (
    BackendStall,
    CacheFlush,
    DeviceFailStop,
    DiskSlowdown,
    FaultSchedule,
)

#: Euler nodes over several decades of time, the grid every SLA query
#: and quantile search evaluates the transform on.
_BETA = euler_nodes(24)[0]
_NODES = _BETA[np.newaxis, :] / np.array([0.002, 0.02, 0.2, 2.0])[:, np.newaxis]
_REL = 1e-13

_SHARED = DiskLatencyProfile(
    index=Gamma(2.4, 140.0), meta=Gamma(1.8, 210.0), data=Gamma(2.0, 235.0)
)

miss_ratio = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def devices(draw, name):
    n_be = draw(st.sampled_from([1, 4, 16]))
    rate = draw(st.floats(1.0, 25.0)) * min(n_be, 3)
    extra = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    if draw(st.booleans()):
        disk = _SHARED
    else:
        disk = DiskLatencyProfile(
            *(
                Gamma(draw(st.floats(1.0, 4.0)), draw(st.floats(100.0, 400.0)))
                for _ in range(3)
            )
        )
    parse = draw(
        st.sampled_from([Degenerate(0.0), Degenerate(0.0004), Gamma(2.0, 5000.0)])
    )
    miss = CacheMissRatios(draw(miss_ratio), draw(miss_ratio), draw(miss_ratio))
    return DeviceParameters(name, rate, rate * (1.0 + extra), miss, disk, parse, n_be)


@st.composite
def systems(draw, min_devices=1):
    n = draw(st.integers(min_devices, 6))
    devs = tuple(draw(devices(f"d{j}")) for j in range(n))
    frontend = FrontendParameters(12, Degenerate(0.001))
    if draw(st.booleans()):
        frontend = HeterogeneousFrontendParameters(
            (frontend, FrontendParameters(4, Gamma(2.0, 1500.0)))
        )
    return SystemParameters(frontend, devs)


def _trees_solve(params) -> bool:
    """Whether every device's backend tree solves (no ``rho >= 1``)."""
    try:
        for dev in params.devices:
            BackendModel.solve(dev)
    except UnstableQueueError:
        return False
    return True


def _assert_matches_trees(model, classes):
    plan = model.system_latency
    assert isinstance(plan, SystemPlan)
    trees = Mixture.rate_weighted(
        [model.device_latency(c.params.name) for c in classes],
        [c.weight for c in classes],
    )
    got, want = plan.laplace(_NODES), trees.laplace(_NODES)
    assert np.all(np.abs(got - want) <= _REL * np.abs(want))
    assert plan.mean == trees.mean
    assert plan.atom_at_zero == trees.atom_at_zero
    assert model.utilizations() == {
        c.params.name: model.backend(c.params.name).utilization for c in classes
    }


_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(params=systems(), mode=st.sampled_from(["paper", "none"]))
def test_plan_matches_tree_mixture(params, mode):
    try:
        model = LatencyPercentileModel(params, accept_mode=mode)
    except UnstableQueueError:
        assert not _trees_solve(params)
        return
    assert _trees_solve(params)
    _assert_matches_trees(model, _device_classes(params))


@st.composite
def faults(draw, n):
    device = draw(st.integers(0, n - 1))
    start = draw(st.floats(0.0, 8.0))
    kind = draw(st.sampled_from(["slow", "fail", "stall", "cold"]))
    if kind == "slow":
        return DiskSlowdown(device, start, start + 2.0, draw(st.floats(1.5, 4.0)))
    if kind == "fail":
        return DeviceFailStop(device, start, start + 2.0)
    if kind == "stall":
        return BackendStall(device, start, draw(st.floats(0.05, 1.0)))
    return CacheFlush(device, start)


@_SETTINGS
@given(data=st.data(), mode=st.sampled_from(["paper", "none"]))
def test_degraded_plan_matches_tree_mixture(data, mode):
    params = data.draw(systems(min_devices=2))
    fault = data.draw(faults(len(params.devices)))
    try:
        model = DegradedLatencyModel(
            params, FaultSchedule((fault,)), (0.0, 10.0), accept_mode=mode
        )
    except UnstableQueueError:
        return
    _assert_matches_trees(model, model.classes)


def test_stall_class_carries_its_residual():
    params = SystemParameters(
        FrontendParameters(12, Degenerate(0.001)),
        tuple(
            DeviceParameters(f"d{j}", 20.0, 21.0, CacheMissRatios(0.4, 0.5, 0.8), _SHARED)
            for j in range(3)
        ),
    )
    model = DegradedLatencyModel(
        params, FaultSchedule((BackendStall(1, 2.0, 0.5),)), (0.0, 10.0)
    )
    stalled = [c for c in model.classes if c.extra_delay is not None]
    assert [type(c.extra_delay) for c in stalled] == [Uniform]
    _assert_matches_trees(model, model.classes)
    # A stall over the whole window leaves no class without a residual.
    alone = SystemParameters(params.frontend, params.devices[:1])
    model = DegradedLatencyModel(alone, FaultSchedule((BackendStall(0, 2.0, 0.5),)), (2.0, 2.5))
    assert [c.extra_delay is not None for c in model.classes] == [True]
    _assert_matches_trees(model, model.classes)


@_SETTINGS
@given(params=systems(), sla=st.floats(0.005, 0.5))
def test_exact_reductions(params, sla):
    """An empty fault schedule and kofn@1 are the healthy model, to the bit."""
    try:
        healthy = LatencyPercentileModel(params)
    except UnstableQueueError:
        with pytest.raises(UnstableQueueError):
            DegradedLatencyModel(params, FaultSchedule(), (0.0, 10.0))
        return
    empty = DegradedLatencyModel(params, FaultSchedule(), (0.0, 10.0))
    kofn1 = RedundantLatencyModel(params, (), strategy="kofn", fanout=1)
    assert empty.system_latency.cache_token() == healthy.system_latency.cache_token()
    for other in (empty, kofn1):
        assert other.sla_percentile(sla) == healthy.sla_percentile(sla)
        assert other.mean_latency == healthy.mean_latency
        assert other.utilizations() == healthy.utilizations()


def test_uncovered_kinds_stay_on_trees():
    params = SystemParameters(
        FrontendParameters(12, Degenerate(0.001)),
        (DeviceParameters("d0", 80.0, 83.0, CacheMissRatios(0.3, 0.4, 0.8), _SHARED, n_processes=8),),
    )
    for kwargs in ({"accept_mode": "equilibrium"}, {"disk_queue": "mg1k"}):
        model = LatencyPercentileModel(params, **kwargs)
        assert not isinstance(model.system_latency, SystemPlan)
    model = LatencyPercentileModel(params)
    model.sla_percentile(0.05)
    model.latency_quantile(0.99)
    assert model.utilizations()
    assert isinstance(model.system_latency, SystemPlan)
    assert model._device_latency == model._backends == {}  # no tree was built
