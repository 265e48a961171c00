"""M/M/1/K queue: the paper's disk model for multi-process devices.

With ``N_be > 1`` processes per storage device, operations that miss the
cache enter the disk's FCFS queue and the issuing process blocks until
completion; hence at most ``N_be`` operations can ever be at the disk.
The paper models this finite-capacity disk queue as M/M/1/K with
``K = N_be`` (an explicit approximation of the underlying M/G/1/K, itself
an approximation of the true finite-source queue -- see
:mod:`repro.queueing.finite_source` for that ablation).

State probabilities (``u = lambda / mu``):

    P_i = (1 - u) u^i / (1 - u^{K+1}),   i = 0..K      (u != 1)
    P_i = 1 / (K + 1)                                   (u == 1)

An *accepted* arrival finds state ``i`` with probability
``q_i = P_i / (1 - P_K)`` (PASTA conditioned on acceptance) and sojourns
an Erlang(``i + 1``, ``mu``) time, so the sojourn transform is

    L[S](s) = sum_{i=0}^{K-1} q_i (mu / (mu + s))^{i+1}

whose geometric closed form is exactly the paper's expression

    L[S_diskN](s) = (mu P_0 / (1 - P_K)) (1 - (lambda/(mu+s))^K)
                    / (mu - lambda + s).

We evaluate the explicit sum (K is small -- the number of processes per
device), which is free of the removable singularity at ``s = lambda - mu``
that the closed form exhibits when overloaded.  The mean sojourn is
``Nbar / (lambda (1 - P_K))`` by Little's law applied with the *effective*
(accepted) arrival rate; the paper prints ``r`` where ``r_disk`` is meant
(see DESIGN.md, substitution table).

The same mixture gives the sojourn's CDF in closed form,
``sum_i q_i P(Erlang(i + 1, mu) <= t)``, which is how the sojourn
discretises onto a lattice (``sojourn_time().to_grid``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import gammainc

from repro.distributions import Distribution, GridPMF, TransformDistribution
from repro.queueing.errors import QueueingError

__all__ = ["MM1KQueue"]


@dataclasses.dataclass(frozen=True)
class MM1KQueue:
    """M/M/1/K queue: capacity ``K`` *including* the one in service.

    Unlike open queues, M/M/1/K is well-defined for any ``u`` (even
    overloaded); the finite buffer keeps it stable, which is precisely
    why the backend model keeps working deeper into the load sweep for
    ``N_be > 1``.
    """

    arrival_rate: float
    service_rate: float
    capacity: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or self.service_rate <= 0.0:
            raise QueueingError("rates must be positive")
        if int(self.capacity) != self.capacity or self.capacity < 1:
            raise QueueingError(f"capacity must be a positive integer, got {self.capacity}")

    @property
    def utilization_offered(self) -> float:
        """Offered load ``u = lambda / mu`` (may exceed 1)."""
        return self.arrival_rate / self.service_rate

    def state_probabilities(self) -> np.ndarray:
        """``P_0 .. P_K`` of the truncated-geometric stationary law."""
        u = self.utilization_offered
        k = np.arange(self.capacity + 1)
        if np.isclose(u, 1.0, rtol=1e-12, atol=1e-12):
            return np.full(self.capacity + 1, 1.0 / (self.capacity + 1))
        # Normalised in log-safe form: u^i / sum u^j.
        weights = u**k
        return weights / weights.sum()

    @property
    def blocking_probability(self) -> float:
        """``P_K``: probability an arrival is turned away."""
        return float(self.state_probabilities()[-1])

    @property
    def effective_arrival_rate(self) -> float:
        """Accepted-arrival rate ``lambda (1 - P_K)``."""
        return self.arrival_rate * (1.0 - self.blocking_probability)

    @property
    def mean_number_in_system(self) -> float:
        """``Nbar = sum i P_i`` (the paper's closed form equals this)."""
        p = self.state_probabilities()
        return float(np.dot(np.arange(self.capacity + 1), p))

    @property
    def mean_sojourn_time(self) -> float:
        """``Nbar / (lambda (1 - P_K))`` -- Little's law on accepted jobs."""
        return self.mean_number_in_system / self.effective_arrival_rate

    def _accepted_state_probs(self) -> np.ndarray:
        p = self.state_probabilities()
        q = p[:-1] / (1.0 - p[-1])
        return q

    def sojourn_time(self) -> Distribution:
        """Sojourn (response) time distribution of accepted arrivals."""
        mu = self.service_rate
        q = self._accepted_state_probs()
        stages = np.arange(1, self.capacity + 1)  # i + 1 service stages

        def transform(s):
            s = np.asarray(s, dtype=complex)
            base = mu / (mu + s)
            # (..., K) powers via broadcasting; K is tiny (= N_be).
            powers = base[..., np.newaxis] ** stages
            return powers @ q

        def lattice(dt, n):
            # The Erlang-mixture CDF at the bin edges, differenced.
            edges = (np.arange(n) + 0.5) * (mu * dt)
            cdf = q @ gammainc(stages[:, np.newaxis], edges)
            probs = np.diff(cdf, prepend=0.0)
            return GridPMF(dt, np.clip(probs, 0.0, None))

        mean = float(np.dot(q, stages) / mu)
        second = float(np.dot(q, stages * (stages + 1)) / mu**2)
        return TransformDistribution(
            transform,
            mean,
            second,
            name=f"mm1k-sojourn(K={self.capacity})",
            token=("mm1k-sojourn", self.arrival_rate, mu, self.capacity),
            lattice=lattice,
        )

    def sojourn_laplace_closed_form(self, s):
        """The paper's closed-form transform, kept as a cross-check.

        Numerically fragile at the removable singularity
        ``s = lambda - mu`` (only reachable when overloaded); prefer
        :meth:`sojourn_time` for model evaluation.
        """
        s = np.asarray(s, dtype=complex)
        lam, mu, K = self.arrival_rate, self.service_rate, self.capacity
        p = self.state_probabilities()
        p0, pk = p[0], p[-1]
        with np.errstate(invalid="ignore", divide="ignore"):
            return (
                (mu * p0 / (1.0 - pk))
                * (1.0 - (lam / (mu + s)) ** K)
                / (mu - lam + s)
            )
