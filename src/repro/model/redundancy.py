"""Analytic latency model for redundant read dispatch (docs/REDUNDANCY.md).

Generalises the paper's Equation 2/3 composition from "one request goes
to one device" to the redundant strategies the simulator's frontend
implements (``repro.simulator.frontend.READ_STRATEGIES``).  The key
observation: under redundant dispatch the *frontend queueing* stage
``S_q`` is still paid once (the parent request parses once), while the
per-replica remainder of Equation 2 -- accept wait plus backend
response, ``R_d = W_a * S_be`` -- races across the contacted replicas.
The response latency over a replica set ``D`` is therefore

    S(t) = S_q * OrderStat_k({R_d : d in D})

with the order ``k`` set by the strategy:

* ``kofn``     -- minimum (``k = 1``) over each size-``f`` subset of the
  row, averaged over the ``C(n, f)`` equally-likely subsets;
* ``quorum``   -- the majority-th (``k = n//2 + 1``) over the full row;
* ``forkjoin`` -- the maximum (``k = f``) over each size-``f`` subset
  (join-before-respond), averaged over subsets.

Order statistics have no Laplace transform, so the final composition
happens in the *grid* domain: ``S_q`` and the order statistic are
discretised through :func:`repro.distributions.grid.grid_of` (which
memoises per ``cache_token`` via the evalcache node-sharing layer) and
convolved on a lattice whose horizon doubles until the captured
probability mass is above threshold.  Every piece discretises
structurally -- the P--K waits and the M/M/1/K disk sojourn through
their own lattice builders, the races through the order statistics'
lattice CDFs -- so with the paper's accept wait and disk queue a
redundant query runs no Laplace inversion.  The cluster-level CDF is
the Equation-3 mixture over *distinct replica rows*, weighted by each
row's partition-count share of the ring.

Independence caveats (quantified in the validation experiments): the
per-replica ``R_d`` race is treated as independent across replicas,
but in the simulator concurrent probes of one request are correlated
through the shared frontend and through cache state; and for
``forkjoin`` the per-device laws are used *as calibrated*, i.e. on
metrics that already include fragment-sized probe traffic -- the
feedback is deliberate, the model answers "what latency does this
running system see", not "what would this system see under a different
strategy".  The ``single`` strategy (and ``kofn``/``forkjoin`` at
``read_fanout = 1``) composes the base model's per-device classes
through the same code path as :class:`LatencyPercentileModel` -- the
same exact reduction the simulator's k=1 bit-identity guarantee
provides on its side.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from repro.distributions import (
    Distribution,
    GridDistribution,
    LatticeError,
    Mixture,
    OrderStatistic,
    convolve,
    grid_of,
    order_statistic,
)
from repro.distributions.grid import convolve_many
from repro.model.frontend import accept_wait
from repro.model.parameters import ParameterError, SystemParameters
from repro.model.system import _device_classes, _ModelCore

__all__ = [
    "RedundantLatencyModel",
    "replica_sets_from_ring",
]

#: Lattice resolution of the grid-domain composition.
_GRID_BINS = 4096
#: Minimum probability mass the composed lattice must capture before the
#: horizon stops doubling.
_MASS_THRESHOLD = 0.9995
_MAX_DOUBLINGS = 8
#: The starting horizon, in multiples of ``E[S_q]`` plus the race's
#: analytic scale (:func:`_race_scale`).  On the light-tailed accuracy
#: cases of ``tests/test_redundant_reads.py`` and the what-if kofn sets,
#: the older horizon of 12 combined means (with the race's lattice mean)
#: came to 11.4--14.8 such sums, so at 11 no row starts on a coarser
#: lattice than it did, and none on one shorter by more than half.
_SPAN_SCALES = 11.0


def replica_sets_from_ring(
    ring, device_names: Sequence[str], *, exclude: Iterable[str] = ()
) -> tuple[tuple[tuple[str, ...], float], ...]:
    """Distinct replica rows of a hash ring, with partition-count weights.

    ``ring`` is a :class:`repro.simulator.ring.HashRing` (or anything
    with an ``assignment`` array of shape ``(n_partitions, replicas)``);
    ``device_names[i]`` names device index ``i`` as it appears in the
    :class:`SystemParameters`.  ``exclude`` drops devices (fail-stopped,
    or filtered out of the parameters for carrying no load) from every
    row, mirroring the frontend's alive-set shrink; a row losing all its
    members is an error.
    """
    assignment = np.asarray(ring.assignment)
    n_parts = assignment.shape[0]
    excluded = set(exclude)
    counts: dict[tuple[str, ...], int] = {}
    for row in assignment:
        names = tuple(
            sorted(
                device_names[int(d)]
                for d in row
                if device_names[int(d)] not in excluded
            )
        )
        if not names:
            raise ParameterError(
                "a replica row lost every member to `exclude`; "
                "no read of its partitions can be dispatched"
            )
        counts[names] = counts.get(names, 0) + 1
    return tuple(
        (names, counts[names] / n_parts) for names in sorted(counts)
    )


def _race_scale(race: Distribution) -> float:
    """An analytic order of magnitude for a race, cheaper than its mean.

    An order statistic's mean has no closed form (it comes from a moment
    lattice).  Its scale is the mean it would have over exponential
    children of the same (analytic) means: by the max-min identity the
    ``k``-th smallest of ``n`` is ``sum_{|S| >= r} (-1)^(|S| - r)
    C(|S| - 1, r - 1) min_S`` with ``r = n - k + 1``, and a minimum of
    exponentials has mean ``1 / sum_S rate``.  A mixture of replica
    subsets takes the weighted sum of its statistics' scales; anything
    else its own mean.
    """
    if isinstance(race, OrderStatistic):
        rates = [1.0 / c.mean if c.mean > 0.0 else math.inf for c in race.components]
        r = race.n - race.k + 1
        return sum(
            (-1) ** (m - r)
            * math.comb(m - 1, r - 1)
            * sum(
                1.0 / total if (total := sum(subset)) > 0.0 else math.inf
                for subset in itertools.combinations(rates, m)
            )
            for m in range(r, race.n + 1)
        )
    if isinstance(race, Mixture):
        return float(
            sum(w * _race_scale(c) for w, c in zip(race.weights, race.components))
        )
    return race.mean


def _compose_grid(s_q: Distribution, race: Distribution) -> Distribution:
    """``S_q * race`` on a lattice with an adaptive horizon.

    The horizon starts at the power of two (in seconds) at or above
    ``_SPAN_SCALES`` times ``E[S_q]`` plus the race's analytic scale
    (:func:`_race_scale`; the power of two puts every row on shared
    lattices, so rows share their children's discretisations) and
    doubles until the convolved lattice keeps at least
    ``_MASS_THRESHOLD`` of the probability mass, so heavy-tailed races
    (Pareto file sizes, saturating replicas) do not silently truncate;
    a lattice still short of it after ``_MAX_DOUBLINGS`` horizons raises
    :class:`LatticeError`.  No order statistic's moments are computed.
    """
    span = _SPAN_SCALES * (s_q.mean + _race_scale(race))
    if span <= 0.0 or not math.isfinite(span):
        raise ParameterError(
            f"cannot choose a composition horizon from span {span}"
        )
    span = 2.0 ** math.ceil(math.log2(span))
    for _ in range(_MAX_DOUBLINGS):
        dt = span / _GRID_BINS
        combined = convolve_many(
            [grid_of(s_q, dt, _GRID_BINS), grid_of(race, dt, _GRID_BINS)],
            n=_GRID_BINS,
        )
        captured = float(combined.probs.sum())
        if captured >= _MASS_THRESHOLD:
            return GridDistribution(combined)
        span *= 2.0
    raise LatticeError(
        f"the S_q * race lattice captured only {captured:.6g} of the "
        f"probability mass (< {_MASS_THRESHOLD}) at a {span / 2.0:.4g} s "
        f"horizon after {_MAX_DOUBLINGS} doublings",
        captured=captured,
    )


class RedundantLatencyModel(_ModelCore):
    """SLA predictor under a redundant read-dispatch strategy.

    Parameters
    ----------
    params:
        Healthy system description (the same :class:`SystemParameters`
        fed to :class:`LatencyPercentileModel`), calibrated from metrics
        observed *under the strategy being modelled*.
    replica_sets:
        ``(device-name tuple, weight)`` pairs describing the distinct
        replica rows and their share of requests -- build them with
        :func:`replica_sets_from_ring`.  Ignored (may be empty) for the
        ``single``/``fanout=1`` reduction.
    strategy / fanout:
        The dispatch strategy and its ``k`` (``fanout`` is ignored for
        ``single`` and ``quorum``, mirroring :class:`ClusterConfig`).
    """

    def __init__(
        self,
        params: SystemParameters,
        replica_sets: Sequence[tuple[Sequence[str], float]] = (),
        *,
        strategy: str = "single",
        fanout: int = 1,
        accept_mode: str = "paper",
        disk_queue: str = "mm1k",
        inversion: str = "euler",
    ) -> None:
        from repro.simulator.frontend import READ_STRATEGIES

        if strategy not in READ_STRATEGIES:
            raise ParameterError(
                f"strategy must be one of {READ_STRATEGIES}, got {strategy!r}"
            )
        if fanout < 1:
            raise ParameterError(f"fanout must be >= 1, got {fanout}")
        self.strategy = strategy
        self.fanout = fanout
        super().__init__(
            params, accept_mode=accept_mode, disk_queue=disk_queue, inversion=inversion
        )
        # The exact reduction: single, and kofn/forkjoin at fanout 1,
        # *are* the paper's model -- same classes, same composition,
        # bit-equal predictions.
        if strategy == "single" or (
            strategy in ("kofn", "forkjoin") and fanout == 1
        ):
            self._compose(_device_classes(params))
            return

        replica_sets = tuple(
            (tuple(names), float(weight)) for names, weight in replica_sets
        )
        if not replica_sets:
            raise ParameterError(
                "redundant strategies need replica_sets (see "
                "replica_sets_from_ring)"
            )
        # R_d = W_a * S_be: everything one replica contributes after the
        # (shared) frontend queue.  Built once per device and shared by
        # every row containing it, so equal-law replicas batch through
        # the order-statistic node-sharing.  Utilisation is a property
        # of each device's own queue; the race does not change it (probe
        # load is already in the observed rates the parameters were
        # calibrated from).
        self._races: dict[str, Distribution] = {}
        for dev in params.devices:
            backend = self._solve(dev)
            self._races[dev.name] = convolve(
                accept_wait(backend.waiting_time, accept_mode),
                backend.response_time,
            )
        self._rows = [
            (self._row_race(names), weight) for names, weight in replica_sets
        ]

    @functools.cached_property
    def _system(self) -> Distribution:
        """The Equation 3 mixture over replica rows, composed on first use.

        The rows compose on FFT lattices (no Laplace inversion).
        Building the model and asking for :meth:`utilizations` cost only
        the queue solves.  (The exact reduction sets ``_system`` in the
        constructor instead.)
        """
        rows = [_compose_grid(self._s_q, race) for race, _ in self._rows]
        return Mixture.rate_weighted(rows, [weight for _, weight in self._rows])

    # ------------------------------------------------------------------
    def _race_of(self, name: str) -> Distribution:
        try:
            return self._races[name]
        except KeyError:
            raise ParameterError(
                f"replica set names unknown device {name!r}"
            ) from None

    def _row_race(self, names: tuple[str, ...]) -> Distribution:
        """The order-statistic race over one replica row."""
        n = len(names)
        if self.strategy == "quorum":
            k = n // 2 + 1
            return order_statistic([self._race_of(d) for d in names], k)
        f = min(self.fanout, n)
        subsets = list(itertools.combinations(names, f))
        k = 1 if self.strategy == "kofn" else f
        stats = [
            order_statistic([self._race_of(d) for d in subset], k)
            for subset in subsets
        ]
        if len(stats) == 1:
            return stats[0]
        # Replica subsets are drawn uniformly by the frontend's partial
        # Fisher-Yates, so the race is the equal-weight mixture.
        return Mixture(stats, [1.0 / len(stats)] * len(stats))
