"""Frontend-tier model (Section III-C).

The response latency of a request routed to device ``D_j`` is the
convolution of three components:

1. **Queueing latency at the frontend** ``S_q``: each of the ``N_fe``
   identical frontend processes is an M/G/1 queue of parsing operations
   at rate ``r_i = r / N_fe``; the paper's expression

       L[S_q](s) = (1 - parse_fe-bar r_i) s L[parse_fe](s)
                   / (r_i L[parse_fe](s) + s - r_i)

   is exactly the P--K *sojourn* (waiting + parsing) transform.

2. **Waiting time for being accept()-ed** ``W_a`` (contribution 2): the
   connecting request waits in the backend connection pool until the
   device process performs an accept() operation.  Since accept() is
   scheduled like any other operation, its *lifetime* is distributed as
   the request-processing-queue waiting time; by PASTA the paper
   approximates ``W_a(t) = W_be(t)``, overestimating the wait of
   connections that arrive mid-lifetime.  Three modes are provided:

   * ``"paper"``  -- ``W_a = W_be`` (the paper's approximation);
   * ``"none"``   -- ``W_a = 0`` (the noWTA baseline);
   * ``"equilibrium"`` -- the renewal-theory refinement: a connection
     arriving uniformly during an accept() lifetime waits the *residual*
     of the length-biased lifetime, i.e. the equilibrium distribution
     ``W_a(t) = (1 - F_W(t)) / E[W]`` dt, computed on a grid.  This is
     the quantitative version of the overestimation the paper describes
     (an ablation arm; see EXPERIMENTS.md).

3. **Backend response latency** ``S_be`` from
   :mod:`repro.model.backend`.

``S_fe = S_q * W_a * S_be`` (Equation 2).
"""

from __future__ import annotations

import numpy as np

from repro.distributions import (
    Degenerate,
    Distribution,
    GridDistribution,
    GridPMF,
    convolve,
    grid_of,
)
from repro.model.backend import BackendModel
from repro.model.parameters import ParameterError
from repro.queueing import MG1Queue

__all__ = [
    "frontend_queueing_latency",
    "accept_wait",
    "device_response",
    "ACCEPT_WAIT_MODES",
]

ACCEPT_WAIT_MODES = ("paper", "none", "equilibrium")

#: Grid used to build the equilibrium accept()-wait distribution.
_EQ_GRID_BINS = 4096


def frontend_queueing_latency(frontend, total_rate: float) -> Distribution:
    """``S_q``: M/G/1 sojourn of one frontend process at rate ``r/N_fe``.

    Accepts a homogeneous pool (:class:`FrontendParameters`) or a
    heterogeneous tier (:class:`HeterogeneousFrontendParameters`); the
    latter is solved per homogeneous set and mixed by share, exactly the
    decomposition Section III-C prescribes.
    """
    from repro.distributions import Mixture
    from repro.model.parameters import HeterogeneousFrontendParameters

    if total_rate <= 0.0:
        raise ParameterError(f"total_rate must be positive, got {total_rate}")
    if isinstance(frontend, HeterogeneousFrontendParameters):
        components = []
        for pool, share in zip(frontend.pools, frontend.shares):
            per_process = total_rate * share / pool.n_processes
            components.append(MG1Queue(per_process, pool.parse).sojourn_time())
        if len(components) == 1:
            return components[0]
        return Mixture(components, frontend.shares)
    per_process = total_rate / frontend.n_processes
    return MG1Queue(per_process, frontend.parse).sojourn_time()


def accept_wait(waiting_time: Distribution, mode: str = "paper") -> Distribution:
    """``W_a``: waiting time for being accept()-ed, per the chosen mode."""
    if mode == "paper":
        return waiting_time
    if mode == "none":
        return Degenerate(0.0)
    if mode == "equilibrium":
        return _equilibrium_wait(waiting_time)
    raise ParameterError(
        f"unknown accept-wait mode {mode!r}; choose from {ACCEPT_WAIT_MODES}"
    )


def _equilibrium_wait(waiting_time: Distribution) -> Distribution:
    """Equilibrium (stationary-excess) distribution of ``W_be`` on a grid.

    Density ``(1 - F_W(t)) / E[W]``; the atom of ``W_be`` at zero (an
    accept() performed on an empty queue has zero lifetime and catches no
    connections) is handled automatically by the length-biasing: zero-
    length lifetimes receive zero weight.  Degenerate edge case: if
    ``E[W] = 0`` the wait is identically zero.
    """
    mean = waiting_time.mean
    if mean <= 0.0:
        return Degenerate(0.0)
    # Span several means of the excess, E[W^2] / (2 E[W]): E[W] alone
    # carries the zero atom, so at low load it undershoots the tail.  The
    # density is binned by the trapezoid rule over the bin edges of the
    # wait's lattice, whose bin k holds ((k - 1/2) dt, (k + 1/2) dt].
    dt = 12.0 * waiting_time.second_moment / (2.0 * mean) / _EQ_GRID_BINS
    cdf = np.cumsum(grid_of(waiting_time, dt, _EQ_GRID_BINS).probs)
    sf = np.clip(1.0 - cdf, 0.0, 1.0)
    probs = np.empty(_EQ_GRID_BINS)
    probs[0] = 0.25 * (1.0 - waiting_time.atom_at_zero + sf[0])
    probs[1:] = 0.5 * (sf[:-1] + sf[1:])
    probs *= dt / mean
    total = probs.sum()
    if total > 1.0:
        probs /= total
    return GridDistribution(GridPMF(dt, probs))


def device_response(
    s_q: Distribution,
    backend: BackendModel,
    *,
    accept_mode: str = "paper",
) -> Distribution:
    """``S_fe = S_q * W_a * S_be`` (Equation 2) for one device.

    ``s_q`` is :func:`frontend_queueing_latency` of the whole tier; every
    device of a model shares it, since every request parses at the same
    frontend queue whatever its device.
    """
    w_a = accept_wait(backend.waiting_time, accept_mode)
    return convolve(s_q, w_a, backend.response_time)
