"""M/G/1 queue via the Pollaczek--Khinchin transform equation.

This is the paper's workhorse: the queue of *union operations* at a
backend storage process is modeled as M/G/1 (Poisson arrivals, general
union-operation service time, one server), and the frontend parsing queue
is M/G/1 as well.  The paper quotes the P--K Laplace transform of the
waiting-time pdf:

    L[W](s) = (1 - b r) s / (r L[B](s) + s - r)

where ``r`` is the arrival rate, ``B`` the service distribution with mean
``b``.  Mean waiting time comes from the P--K mean formula
``r E[B^2] / (2 (1 - rho))``, and the second moment of ``W`` from the
series expansion of the transform:

    E[W^2] = 2 (E[W])^2 + r E[B^3] / (3 (1 - rho))

(the standard Takács recursion).  ``E[B^3]`` is rarely available in
closed form for our composites, so ``waiting_time`` estimates it by a
finite difference of the transform, on first read -- the second moment
only feeds reports and approximations, never the percentile prediction
itself.

The same equation discretises without inversion.  The wait is a
geometric sum of equilibrium residuals of the service: with ``phi_e``
the transform of ``(1 - B(t)) / E[B]``,

    L[W](s) = (1 - rho) / (1 - rho phi_e(s)),

which on a lattice is one FFT of the service lattice's residual
(``waiting_time().to_grid``, used by the grid-domain compositions).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.distributions import (
    Distribution,
    GridPMF,
    TransformDistribution,
    convolve,
    grid_of,
)
from repro.distributions.evalcache import laplace_eval
from repro.queueing.errors import QueueingError, UnstableQueueError

__all__ = ["MG1Queue"]

#: The wait's lattice FFT runs on a zero-padded circle of at least
#: ``_PAD`` times the kept bins, damped so that the mass wrapping round
#: it onto the kept bins is at most ``_WRAP_TOL`` at every ``rho < 1``.
_PAD = 4
_WRAP_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class MG1Queue:
    """M/G/1 queue: Poisson arrivals at ``arrival_rate``, service ``service``."""

    arrival_rate: float
    service: Distribution

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or not np.isfinite(self.arrival_rate):
            raise QueueingError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if not self.service.has_laplace:
            raise QueueingError("M/G/1 needs a service distribution with a transform")
        if self.utilization >= 1.0:
            raise UnstableQueueError(
                f"M/G/1 unstable: rho={self.utilization:.4f} >= 1 "
                f"(rate={self.arrival_rate:.4g}/s, mean service="
                f"{self.service.mean * 1e3:.4g} ms)"
            )

    @property
    def utilization(self) -> float:
        """``rho = r * E[B]``."""
        return self.arrival_rate * self.service.mean

    @property
    def mean_waiting_time(self) -> float:
        """P--K mean formula ``r E[B^2] / (2 (1 - rho))``."""
        return (
            self.arrival_rate
            * self.service.second_moment
            / (2.0 * (1.0 - self.utilization))
        )

    @property
    def mean_sojourn_time(self) -> float:
        return self.mean_waiting_time + self.service.mean

    @property
    def mean_queue_length(self) -> float:
        """Mean number in system via Little's law."""
        return self.arrival_rate * self.mean_sojourn_time

    def waiting_time(self) -> Distribution:
        """The P--K waiting-time distribution as a transform distribution.

        The atom at zero is exactly ``1 - rho`` (the probability of
        arriving to an empty queue, by PASTA).
        """
        r = self.arrival_rate
        rho = self.utilization
        service = self.service

        def transform(s):
            s = np.asarray(s, dtype=complex)
            return ((1.0 - rho) * s) / (r * laplace_eval(service, s) + s - r)

        mean = self.mean_waiting_time
        service_token = service.cache_token()
        return TransformDistribution(
            transform,
            mean,
            functools.partial(self._waiting_second_moment, mean),
            atom_at_zero=1.0 - rho,
            name=f"pk-waiting(r={r:.4g})",
            token=None if service_token is None else ("pk-wait", r, service_token),
            lattice=self._waiting_lattice,
        )

    def _waiting_lattice(self, dt: float, n: int) -> GridPMF:
        """The P--K wait on the lattice: ``(1 - rho) / (1 - rho phi_e)``.

        ``phi_e`` is the rFFT of the equilibrium residual ``(1 - B(t)) /
        E[B]`` of the service lattice, binned by the trapezoid rule over
        the lattice's bin edges and divided by the service's analytic
        mean.  The residual's mass beyond the ``n`` kept bins is left
        out of them; the wait's bins below the horizon only sum
        residuals below it, so they stay exact and the lost mass is the
        lattice's tail.  Only a rounding excess over 1 is normalised
        away: on a lattice that keeps the service's mean, the trapezoid
        misses nothing else.

        Against wrap-around the FFT is zero-padded (``_PAD``) and damped:
        weighting bin ``k`` by ``theta**k`` commutes with convolution, so
        the damped wait is the geometric sum of the damped residual, and
        mass that wraps round the ``m``-bin circle arrives damped by
        ``theta**m = _WRAP_TOL``.  Undamping the kept bins scales FFT
        round-off by at most ``_WRAP_TOL**(-n/m)`` (1e3 at ``_PAD`` 4).
        Zero padding alone would need a circle many times the wait's
        mean, which near saturation far exceeds the horizon a
        composition asks for.
        """
        rho = self.utilization
        if rho == 0.0:
            return GridPMF(dt, np.eye(1, n).ravel())
        sf = np.clip(1.0 - np.cumsum(grid_of(self.service, dt, n).probs), 0.0, 1.0)
        resid = np.empty(n)
        resid[0] = 0.25 * (1.0 - self.service.atom_at_zero + sf[0])
        resid[1:] = 0.5 * (sf[:-1] + sf[1:])
        resid *= dt / self.service.mean
        resid /= max(1.0, resid.sum())
        beyond = 1.0 - resid.sum()
        m = 1 << int(np.ceil(np.log2(_PAD * n)))
        damp = _WRAP_TOL ** (np.arange(n) / m)
        # 1 - phi_e as the transform of delta_0 - damped residual, whose
        # atom is summed rather than cancelled: near rho = 1 the
        # denominator (1 - rho) + rho (1 - phi_e) then keeps its digits.
        lack = -resid * damp
        lack[0] = resid[1:].sum() + beyond
        denom = (1.0 - rho) + rho * np.fft.rfft(lack, m)
        wait = np.fft.irfft((1.0 - rho) / denom, m)[:n] / damp
        return GridPMF(dt, np.clip(wait, 0.0, None))

    def _waiting_second_moment(self, mean_wait: float) -> float:
        """Takács: ``E[W^2] = 2 E[W]^2 + r E[B^3] / (3 (1 - rho))``.

        ``E[B^3]`` is estimated by a 4-point finite difference of the
        service transform at a mean-scaled step; adequate for reporting.
        """
        b1 = self.service.mean
        if b1 == 0.0:
            return 0.0
        h = 1e-3 / b1
        s = np.asarray([0.0, h, 2.0 * h, 3.0 * h], dtype=complex)
        vals = np.real(self.service.laplace(s))
        third = -(vals[3] - 3.0 * vals[2] + 3.0 * vals[1] - vals[0]) / h**3
        third = max(float(third), 0.0)
        return 2.0 * mean_wait**2 + self.arrival_rate * third / (
            3.0 * (1.0 - self.utilization)
        )

    def sojourn_time(self) -> Distribution:
        """Time in system: waiting convolved with one service."""
        return convolve(self.waiting_time(), self.service)
