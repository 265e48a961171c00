"""M/G/1/K queue via the embedded Markov chain (the III-B extension hook).

The paper approximates the finite-capacity disk queue by M/M/1/K "for
simplicity", citing J.M. Smith's analysis of M/M/1/K-based approximations
to M/G/1/K, and explicitly notes that *any* approximation works as long
as the sojourn transform has a closed form.  This module provides that
better approximation arm for the ablation benchmarks:

* **Exact queue-length law.**  The embedded Markov chain at departure
  epochs has transition probabilities built from
  ``a_j = P(j Poisson arrivals during one service)``, computed
  numerically from the service distribution's grid pmf.  Solving the
  chain gives the departure-epoch law ``pi``; the classic M/G/1/K
  relations then yield the time-stationary law

      p_j = pi_j / (pi_0 + rho),  j = 0..K-1;
      p_K = 1 - 1 / (pi_0 + rho)

  and hence the exact blocking probability.

* **Sojourn-time approximation.**  An accepted arrival that finds ``i``
  jobs waits for the *residual* service of the job in progress plus
  ``i - 1`` full services plus its own.  Treating the residual as the
  equilibrium residual ``L_R(s) = (1 - L_B(s)) / (s E[B])`` and ignoring
  the (weak) state/residual dependence gives

      L[S](s) = q_0 L_B(s) + L_R(s) L_B(s) sum_{i>=1} q_i L_B(s)^{i-1}

  with ``q_i = p_i / (1 - p_K)``.  This collapses to the exact M/M/1/K
  transform when the service is exponential (memorylessness makes the
  residual a full service), which the tests verify.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distributions import Distribution, TransformDistribution, grid_of
from repro.distributions.evalcache import laplace_eval
from repro.queueing.errors import QueueingError

__all__ = ["MG1KQueue"]

#: Grid resolution used to evaluate the arrival-count integrals.
_GRID_BINS = 2048


@dataclasses.dataclass(frozen=True)
class MG1KQueue:
    """M/G/1/K queue with Poisson arrivals and general service."""

    arrival_rate: float
    service: Distribution
    capacity: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0 or not np.isfinite(self.arrival_rate):
            raise QueueingError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if int(self.capacity) != self.capacity or self.capacity < 1:
            raise QueueingError(f"capacity must be a positive integer, got {self.capacity}")
        if self.service.mean <= 0.0:
            raise QueueingError("service must have positive mean")
        if not self.service.has_laplace:
            raise QueueingError("M/G/1/K needs a service distribution with a transform")

    @property
    def offered_load(self) -> float:
        """``rho = lambda E[B]`` (may exceed 1; the buffer keeps it stable)."""
        return self.arrival_rate * self.service.mean

    # ------------------------------------------------------------------
    def _arrival_counts(self, n_max: int) -> np.ndarray:
        """``a_j = P(j arrivals during one service)`` for ``j = 0..n_max``.

        Computed as ``sum_k pmf[k] Poisson(j; lambda t_k)`` over a grid of
        the service distribution; the grid spans ~40 means so the
        truncated tail is negligible for the service laws in this package.
        """
        mean = self.service.mean
        dt = 40.0 * mean / _GRID_BINS
        pmf = grid_of(self.service, dt, _GRID_BINS)
        total = pmf.probs.sum()
        if total <= 0.0:
            raise QueueingError("service grid lost all mass; check parameters")
        # Imported here: scipy.stats costs most of a cold start and only
        # this ablation needs it.
        from scipy import stats as _stats

        times = pmf.times
        j = np.arange(n_max + 1)
        # (n_bins, n_max+1) Poisson pmf table; vectorised via scipy.
        table = _stats.poisson.pmf(j[np.newaxis, :], self.arrival_rate * times[:, np.newaxis])
        a = (pmf.probs / total) @ table
        return a

    def departure_epoch_probabilities(self) -> np.ndarray:
        """Stationary law ``pi_0 .. pi_{K-1}`` of the embedded chain."""
        K = self.capacity
        a = self._arrival_counts(K)
        # Transition matrix over states 0..K-1 (jobs left behind).
        P = np.zeros((K, K))
        for i in range(K):
            start = max(i - 1, 0)  # state after one departure from i (or 0)
            for j in range(K - 1):
                delta = j - start
                if delta >= 0:
                    P[i, j] = a[delta]
            P[i, K - 1] = max(0.0, 1.0 - P[i, : K - 1].sum())
        # Solve pi = pi P with normalisation.
        A = np.vstack([P.T - np.eye(K), np.ones(K)])
        b = np.zeros(K + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def state_probabilities(self) -> np.ndarray:
        """Time-stationary law ``p_0 .. p_K``."""
        pi = self.departure_epoch_probabilities()
        rho = self.offered_load
        denom = pi[0] + rho
        p = np.empty(self.capacity + 1)
        p[:-1] = pi / denom
        p[-1] = max(0.0, 1.0 - 1.0 / denom)
        return p / p.sum()

    @property
    def blocking_probability(self) -> float:
        return float(self.state_probabilities()[-1])

    @property
    def effective_arrival_rate(self) -> float:
        return self.arrival_rate * (1.0 - self.blocking_probability)

    @property
    def mean_number_in_system(self) -> float:
        p = self.state_probabilities()
        return float(np.dot(np.arange(self.capacity + 1), p))

    @property
    def mean_sojourn_time(self) -> float:
        return self.mean_number_in_system / self.effective_arrival_rate

    def sojourn_time(self) -> Distribution:
        """Accepted-arrival sojourn time (residual-service approximation)."""
        p = self.state_probabilities()
        q = p[:-1] / (1.0 - p[-1])
        b_mean = self.service.mean
        service = self.service
        K = self.capacity

        def transform(s):
            s = np.asarray(s, dtype=complex)
            lb = laplace_eval(service, s)
            # Equilibrium residual-service transform.  The limit at
            # s -> 0 is 1; substitute it where |s| underflows the ratio
            # (the moment stencil evaluates at s = 0 exactly).
            small = np.abs(s) * b_mean < 1e-12
            safe_s = np.where(small, 1.0, s)
            lr = np.where(small, 1.0, (1.0 - lb) / (safe_s * b_mean))
            acc = np.zeros_like(lb)
            power = np.ones_like(lb)  # L_B^{i-1}
            for i in range(1, K):
                acc = acc + q[i] * power
                power = power * lb
            return q[0] * lb + lr * lb * acc if K > 1 else q[0] * lb

        # Moments from the same mixture: residual mean E[B^2]/(2 E[B]).
        res_mean = self.service.second_moment / (2.0 * b_mean)
        i = np.arange(K)
        means = np.where(i == 0, b_mean, res_mean + i * b_mean)
        mean = float(np.dot(q, means))
        service_token = service.cache_token()
        return TransformDistribution(
            transform,
            mean,
            name=f"mg1k-sojourn(K={K})",
            token=(
                None
                if service_token is None
                else ("mg1k-sojourn", self.arrival_rate, K, service_token)
            ),
        )
