"""System-level model (Section III-D) and the user-facing predictor.

:class:`LatencyPercentileModel` is the library's headline API: construct
it from :class:`~repro.model.parameters.SystemParameters` and ask for the
percentile of requests meeting an SLA -- the paper's Equation 3 mixture

    S(t) = sum_j r_j S_j(t) / sum_j r_j

evaluated at the SLA threshold, where each ``S_j`` is the per-device
frontend response latency of Equation 2.

The base, degraded (:class:`DegradedLatencyModel`) and redundant
(:class:`~repro.model.redundancy.RedundantLatencyModel`) predictors are
constructors of one private core: it solves the frontend queue ``S_q``
once (every request passes the same M/G/1 parse queue, Section III-C),
composes Equation 2 per device class and Equation 3 over the classes,
and answers the queries.  With the paper's accept wait (or none) and
M/M/1/K disks the composition is compiled into one evaluation plan
(:class:`~repro.model.plan.SystemPlan`): a query evaluates arrays over
the classes and walks no tree, and each device's backend and
distribution tree is solved only when asked for.  The equilibrium
accept wait and the M/G/1/K and finite-source disks compose the trees.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.distributions import Distribution, Mixture, Uniform, convolve
from repro.model.backend import BackendModel
from repro.model.frontend import (
    accept_wait,
    device_response,
    frontend_queueing_latency,
)
from repro.model.parameters import (
    CacheMissRatios,
    DeviceParameters,
    ParameterError,
    SystemParameters,
)
from repro.model.plan import SystemPlan
from repro.queueing import UnstableQueueError

__all__ = [
    "LatencyPercentileModel",
    "PredictionBreakdown",
    "DeviceClass",
    "degraded_device_classes",
    "DegradedLatencyModel",
]


@dataclasses.dataclass(frozen=True)
class PredictionBreakdown:
    """Mean-latency decomposition for one device (what-if diagnostics)."""

    device: str
    utilization: float
    mean_frontend_queueing: float
    mean_accept_wait: float
    mean_backend_response: float

    @property
    def mean_total(self) -> float:
        return (
            self.mean_frontend_queueing
            + self.mean_accept_wait
            + self.mean_backend_response
        )


@dataclasses.dataclass(frozen=True)
class DeviceClass:
    """One homogeneous slice of the Equation-3 mixture.

    ``params`` describes the device *as its queue sees it during this
    class's share of the window* (rates, miss ratios, disk profile; a
    healthy device is one class at its own request rate);
    ``weight`` is the class's share of served requests (rate x time
    fraction), which is what the Equation-3 mixture weighs by;
    ``extra_delay`` is an additive response-time penalty outside the
    queueing composition (used for stall residuals).
    """

    params: DeviceParameters
    weight: float
    extra_delay: Distribution | None = None


def _device_classes(params: SystemParameters) -> tuple[DeviceClass, ...]:
    """One class per device, weighted by its request rate (Equation 3)."""
    return tuple(DeviceClass(dev, dev.request_rate) for dev in params.devices)


class _ModelCore:
    """The solved queues and prediction surface every model shares.

    Holds the frontend queue ``S_q`` (built once per model), the device
    classes :meth:`_compose` was given and the mixture ``_system`` the
    query methods read (a plan or a mixture of trees, see the module
    docstring).  Backends and per-class trees are solved on first use.
    """

    def __init__(
        self,
        params: SystemParameters,
        *,
        accept_mode: str,
        disk_queue: str,
        inversion: str,
    ) -> None:
        self.params = params
        self.accept_mode = accept_mode
        self.disk_queue = disk_queue
        self.inversion = inversion
        self._s_q = frontend_queueing_latency(
            params.frontend, params.total_request_rate
        )
        self._classes: dict[str, DeviceClass] = {}
        self._backends: dict[str, BackendModel] = {}
        self._device_latency: dict[str, Distribution] = {}
        self._plan: SystemPlan | None = None

    def _solve(self, dev: DeviceParameters) -> BackendModel:
        backend = BackendModel.solve(dev, disk_queue=self.disk_queue)
        self._backends[dev.name] = backend
        return backend

    def _compose(self, classes: Sequence[DeviceClass]) -> None:
        """Equation 2 per class, then the Equation 3 mixture over them."""
        self._classes = {cls.params.name: cls for cls in classes}
        if self.accept_mode in ("paper", "none") and self.disk_queue == "mm1k":
            self._system = self._plan = SystemPlan(
                self._s_q, classes, self.accept_mode, self._trees
            )
        else:
            self._system = Mixture.rate_weighted(
                self._trees(), [cls.weight for cls in classes]
            )

    def _trees(self) -> list[Distribution]:
        """Every class's Equation-2 tree, in class order."""
        return [self.device_latency(name) for name in self._classes]

    def _class(self, name: str) -> DeviceClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ParameterError(f"unknown device {name!r}") from None

    def backend(self, name: str) -> BackendModel:
        """The solved backend model for one device (or class)."""
        if name not in self._backends:
            self._solve(self._class(name).params)
        return self._backends[name]

    def device_latency(self, name: str) -> Distribution:
        """``S_j``: response-latency distribution of one device (or class)."""
        if name not in self._device_latency:
            cls = self._class(name)
            latency = device_response(
                self._s_q, self.backend(name), accept_mode=self.accept_mode
            )
            if cls.extra_delay is not None:
                latency = convolve(latency, cls.extra_delay)
            self._device_latency[name] = latency
        return self._device_latency[name]

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    @property
    def system_latency(self) -> Distribution:
        """The Equation 3 mixture over devices (or device classes)."""
        return self._system

    def sla_percentile(self, sla_seconds: float) -> float:
        """Fraction of requests meeting the SLA: ``S(sla)``.

        This is the paper's headline prediction, e.g.
        ``sla_percentile(0.1) == 0.95`` means 95% of requests respond
        within 100 ms.
        """
        return float(self._system.cdf(sla_seconds, method=self.inversion))

    def sla_percentiles(self, slas: Iterable[float]) -> np.ndarray:
        """Vectorised :meth:`sla_percentile` over several SLAs."""
        slas = np.asarray(list(slas), dtype=float)
        return np.asarray(self._system.cdf(slas, method=self.inversion), dtype=float)

    def latency_quantile(self, q: float) -> float:
        """Inverse prediction: the latency below which fraction ``q`` of
        requests complete (e.g. ``latency_quantile(0.99)`` is the p99)."""
        return self._system.quantile(q, method=self.inversion)

    @property
    def mean_latency(self) -> float:
        return self._system.mean

    def utilizations(self) -> Mapping[str, float]:
        """Per-device (or per-class, ``name#tag``) union-operation
        queue utilisation."""
        if self._plan is not None:
            return self._plan.utilizations()
        return {name: be.utilization for name, be in self._backends.items()}


class LatencyPercentileModel(_ModelCore):
    """The paper's full analytic model.

    Parameters
    ----------
    params:
        System description (frontend pool + devices with online metrics).
    accept_mode:
        How to model the waiting time for being accept()-ed:
        ``"paper"`` (default, ``W_a = W_be``), ``"none"`` (the noWTA
        baseline), or ``"equilibrium"`` (renewal refinement).
    disk_queue:
        Finite-capacity disk model for ``N_be > 1`` devices: ``"mm1k"``
        (paper default), ``"mg1k"``, or ``"finite-source"``.
    inversion:
        Numerical Laplace-inversion algorithm for CDF evaluation
        (``"euler"`` default, ``"talbot"``, ``"gaver"``).

    Raises :class:`~repro.queueing.UnstableQueueError` when any queue in
    the composition would be saturated -- the paper's model is only
    defined below saturation ("normal status" assumption).
    """

    def __init__(
        self,
        params: SystemParameters,
        *,
        accept_mode: str = "paper",
        disk_queue: str = "mm1k",
        inversion: str = "euler",
    ) -> None:
        super().__init__(
            params, accept_mode=accept_mode, disk_queue=disk_queue, inversion=inversion
        )
        self._compose(_device_classes(params))

    def device_sla_percentile(self, name: str, sla_seconds: float) -> float:
        """Per-device percentile (bottleneck identification)."""
        return float(self.device_latency(name).cdf(sla_seconds, method=self.inversion))

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def breakdown(self) -> list[PredictionBreakdown]:
        """Per-device mean-latency decomposition (Sq / Wa / Sbe)."""
        s_q_mean = self._s_q.mean
        out = []
        for dev in self.params.devices:
            be = self.backend(dev.name)
            w_a = accept_wait(be.waiting_time, self.accept_mode)
            out.append(
                PredictionBreakdown(
                    device=dev.name,
                    utilization=be.utilization,
                    mean_frontend_queueing=s_q_mean,
                    mean_accept_wait=w_a.mean,
                    mean_backend_response=be.response_time.mean,
                )
            )
        return out

    def stage_means(self) -> dict[str, float]:
        """Rate-weighted mean latency per Equation-2 stage.

        Aggregates :meth:`breakdown` with the same per-device rate
        weights the Equation-3 mixture uses, so the stage means sum to
        the model's mean response latency and line up one-to-one with
        the simulator's observed ``frontend_sojourn`` / ``accept_wait``
        / ``backend_response`` columns -- the join the error-attribution
        report (:mod:`repro.experiments.attribution`) is built on.
        """
        rates = np.asarray([d.request_rate for d in self.params.devices])
        weights = rates / rates.sum()
        rows = self.breakdown()
        stages = {
            "frontend_sojourn": sum(
                w * b.mean_frontend_queueing for w, b in zip(weights, rows)
            ),
            "accept_wait": sum(
                w * b.mean_accept_wait for w, b in zip(weights, rows)
            ),
            "backend_response": sum(
                w * b.mean_backend_response for w, b in zip(weights, rows)
            ),
        }
        stages = {k: float(v) for k, v in stages.items()}
        stages["total"] = sum(stages.values())
        return stages

    def max_stable_scale(self, *, tol: float = 1e-4) -> float:
        """Largest uniform load multiplier keeping every queue stable.

        Used by overload-control and capacity-planning what-ifs: beyond
        this factor the model (like the system) saturates.  Found by
        bisection on :meth:`SystemParameters.scaled`.
        """
        lo, hi = 0.0, 1.0
        # Grow hi until unstable (or absurdly large).
        for _ in range(60):
            if not self._stable_at(hi):
                break
            lo = hi
            hi *= 2.0
        else:
            return hi
        while hi - lo > tol * hi:
            mid = 0.5 * (lo + hi)
            if self._stable_at(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _stable_at(self, factor: float) -> bool:
        # Stability depends on the disk queue only; with M/M/1/K disks
        # the model is a plan, whose construction solves no tree.
        try:
            LatencyPercentileModel(
                self.params.scaled(factor), disk_queue=self.disk_queue
            )
        except UnstableQueueError:
            return False
        return True


# ----------------------------------------------------------------------
# Degraded-mode predictor (fault windows; see docs/FAULTS.md)
# ----------------------------------------------------------------------


def _scaled_disk(profile, factor: float):
    from repro.distributions import Scaled
    from repro.model.parameters import DiskLatencyProfile

    if abs(factor - 1.0) < 1e-12:
        return profile
    return DiskLatencyProfile(
        index=Scaled(profile.index, factor),
        meta=Scaled(profile.meta, factor),
        data=Scaled(profile.data, factor),
    )


def _cold_miss_ratios(m: CacheMissRatios, coldness: tuple[float, float, float]):
    """Miss ratios pushed toward 1 by the post-flush refill transient:
    ``m' = m + (1 - m) * g`` per kind, ``g`` the average coldness."""

    def lift(miss: float, g: float) -> float:
        return min(1.0, miss + (1.0 - miss) * g)

    g_i, g_m, g_d = coldness
    return CacheMissRatios(
        index=lift(m.index, g_i), meta=lift(m.meta, g_m), data=lift(m.data, g_d)
    )


def _avg_coldness(span: float, fill_time: float | None) -> float:
    """Average of the linear refill transient ``max(0, 1 - u/tau)`` over
    ``[0, span]``.  ``fill_time=None`` (unknown) assumes the cache stays
    cold for the whole span (the conservative upper bound)."""
    if fill_time is None:
        return 1.0
    if fill_time <= 0.0:
        return 0.0
    if span >= fill_time:
        return fill_time / (2.0 * span)
    return 1.0 - span / (2.0 * fill_time)


def degraded_device_classes(
    params: SystemParameters,
    schedule,
    window: tuple[float, float],
    *,
    devices_per_server: int = 1,
    cold_fill_times: tuple[float, float, float] | None = None,
) -> tuple[DeviceClass, ...]:
    """Split the fleet into per-device-class parameters for a window.

    ``params`` is the *healthy* baseline (devices in simulator index
    order); ``schedule`` a :class:`repro.simulator.faults.FaultSchedule`;
    ``window`` the analysis span ``(t0, t1)`` in the schedule's time
    base.  Each fault splits its device's window into a degraded and a
    healthy slice, weighted by time-fraction x rate:

    * **disk slowdown** -- degraded slice uses the benchmarked profile
      scaled by the slowdown factor;
    * **fail-stop** -- the failed device only contributes its alive
      slice; each survivor gains the failed device's load (split evenly)
      during the failure, i.e. runs at ``r x D/(D-k)``-adjusted load;
    * **cache flush** -- devices of the flushed server run with miss
      ratios lifted toward the LRU refill transient
      (``cold_fill_times`` gives the per-kind fill times; ``None``
      assumes fully cold, the upper bound);
    * **backend stall** -- requests arriving during the stall carry an
      additive ``Uniform(0, stall)`` residual delay on top of the
      healthy response.

    At most one fault may touch any given device within the window
    (superposed faults on one device are not modelled); otherwise
    :class:`ParameterError` is raised.
    """
    from repro.simulator.faults import (
        BackendStall,
        CacheFlush,
        DeviceFailStop,
        DiskSlowdown,
    )

    t0, t1 = window
    if t1 <= t0:
        raise ParameterError(f"need t1 > t0, got window {window}")
    span = t1 - t0
    devices = params.devices
    n = len(devices)

    def overlap(a: float, b: float) -> float:
        return max(0.0, min(b, t1) - max(a, t0)) / span

    # Per-device primary effect: (kind, fraction, payload)
    effects: dict[int, tuple] = {}
    # Per-device extra load fraction pairs from fail-stops elsewhere:
    # (fraction, d_request_rate, d_data_rate)
    boosts: dict[int, list[tuple[float, float, float]]] = {}

    def claim(idx: int, effect: tuple) -> None:
        if not 0 <= idx < n:
            raise ParameterError(
                f"fault targets device {idx}, parameters describe {n} devices"
            )
        if idx in effects:
            raise ParameterError(
                f"superposed faults on device {idx} are not supported by the "
                "degraded predictor; split the analysis window per fault"
            )
        effects[idx] = effect

    for fault in schedule:
        if isinstance(fault, DiskSlowdown):
            frac = overlap(fault.start, fault.end)
            if frac > 0.0:
                claim(fault.device, ("slow", frac, fault.factor))
        elif isinstance(fault, DeviceFailStop):
            frac = overlap(fault.start, fault.end)
            if frac > 0.0:
                claim(fault.device, ("fail", frac, None))
                dead = devices[fault.device]
                survivors = [i for i in range(n) if i != fault.device]
                if not survivors:
                    raise ParameterError("cannot fail-stop the only device")
                dr = dead.request_rate / len(survivors)
                dd = dead.data_read_rate / len(survivors)
                for i in survivors:
                    boosts.setdefault(i, []).append((frac, dr, dd))
        elif isinstance(fault, BackendStall):
            a, b = fault.active_window
            frac = overlap(a, b)
            if frac > 0.0:
                claim(fault.device, ("stall", frac, min(b, t1) - max(a, t0)))
        elif isinstance(fault, CacheFlush):
            lo = fault.server * devices_per_server
            cold_span = min(max(t1 - max(fault.at, t0), 0.0), span)
            if fault.at < t1 and cold_span > 0.0:
                frac = cold_span / span
                fills = cold_fill_times or (None, None, None)
                coldness = tuple(_avg_coldness(cold_span, f) for f in fills)
                for idx in range(lo, min(lo + devices_per_server, n)):
                    claim(idx, ("cold", frac, coldness))
        else:  # pragma: no cover - FaultSchedule already validates types
            raise ParameterError(f"unknown fault type {type(fault).__name__}")

    for idx in boosts:
        if idx in effects:
            raise ParameterError(
                f"device {idx} both carries handed-off load and has its own "
                "fault; superposed degradations are not supported"
            )

    classes: list[DeviceClass] = []

    def add(dev: DeviceParameters, weight: float, extra=None, tag=None) -> None:
        if weight <= 1e-12:
            return
        if tag is not None:
            dev = dataclasses.replace(dev, name=f"{dev.name}#{tag}")
        classes.append(DeviceClass(params=dev, weight=weight, extra_delay=extra))

    for idx, dev in enumerate(devices):
        r = dev.request_rate
        effect = effects.get(idx)
        if effect is None and idx not in boosts:
            add(dev, r)
            continue
        if idx in boosts:
            # Survivor of a fail-stop: boosted during the failure window.
            if len(boosts[idx]) > 1:
                raise ParameterError(
                    "multiple simultaneous fail-stops are not supported"
                )
            frac, dr, dd = boosts[idx][0]
            boosted = dataclasses.replace(
                dev,
                request_rate=r + dr,
                data_read_rate=dev.data_read_rate + dd,
            )
            add(boosted, (r + dr) * frac, tag="boost")
            add(dev, r * (1.0 - frac))
            continue
        kind, frac, payload = effect
        if kind == "slow":
            slowed = dataclasses.replace(dev, disk=_scaled_disk(dev.disk, payload))
            add(slowed, r * frac, tag="slow")
            add(dev, r * (1.0 - frac))
        elif kind == "fail":
            add(dev, r * (1.0 - frac))
        elif kind == "stall":
            add(dev, r * frac, extra=Uniform(0.0, payload), tag="stall")
            add(dev, r * (1.0 - frac))
        elif kind == "cold":
            cold = dataclasses.replace(
                dev, miss_ratios=_cold_miss_ratios(dev.miss_ratios, payload)
            )
            add(cold, r * frac, tag="cold")
            add(dev, r * (1.0 - frac))

    if not classes:
        raise ParameterError("no device class carries load in the window")
    return tuple(classes)


class DegradedLatencyModel(_ModelCore):
    """Mixed-fleet SLA predictor for fault windows.

    The cluster CDF is the request-weighted mixture of per-device-class
    response CDFs produced by :func:`degraded_device_classes` -- the
    Equation-3 mixture generalised from per-device to per-(device,
    health-state) terms.  With an empty schedule this reduces *exactly*
    to :class:`LatencyPercentileModel`: same classes, same composition,
    same floating-point results.

    ``params`` must be the healthy baseline (e.g. online metrics from a
    pre-fault window); the frontend tier keeps seeing the full arrival
    stream, so its M/G/1 term uses the baseline total rate throughout.
    """

    def __init__(
        self,
        params: SystemParameters,
        schedule,
        window: tuple[float, float],
        *,
        accept_mode: str = "paper",
        disk_queue: str = "mm1k",
        inversion: str = "euler",
        devices_per_server: int = 1,
        cold_fill_times: tuple[float, float, float] | None = None,
    ) -> None:
        self.schedule = schedule
        self.window = (float(window[0]), float(window[1]))
        self.classes = degraded_device_classes(
            params,
            schedule,
            self.window,
            devices_per_server=devices_per_server,
            cold_fill_times=cold_fill_times,
        )
        super().__init__(
            params, accept_mode=accept_mode, disk_queue=disk_queue, inversion=inversion
        )
        self._compose(self.classes)
