"""A model's Equation 1-3 transform, compiled once into an evaluation plan.

:class:`SystemPlan` holds the Equation-3 mixture of per-class Equation-2
trees ``S_q * W_a * S_be`` as arrays over the classes (weights, rates,
extra reads ``p``, miss ratios, P--K ``rho``, and the M/M/1/K ``mu`` and
accepted-state vector ``q`` of ``N_be > 1`` disks) plus, per class, rows
into the distinct leaf laws (parse and disk laws, stall residuals).  An
evaluation at nodes ``s`` evaluates each distinct law once and the rest
as one array program over a (classes x nodes) grid.  Factors multiply,
and moments sum, in the trees' order, so the transform, mean and zero
atom equal the trees'; :attr:`SystemPlan.components` builds the trees,
which stay the definition of each law, on first read.
"""

from __future__ import annotations

import numpy as np

from repro.distributions import Distribution, Mixture
from repro.distributions.evalcache import laplace_eval
from repro.queueing import UnstableQueueError
from repro.queueing.mm1k import mm1k_state_probabilities

__all__ = ["SystemPlan"]


def _normalised(rates) -> np.ndarray:
    """Rows of ``rates`` over their sums, twice, as ``Mixture`` does."""
    w = np.asarray(rates, dtype=float)
    w = w / w.sum(axis=-1, keepdims=True)
    return w / w.sum(axis=-1, keepdims=True)


def _squares(x: np.ndarray) -> np.ndarray:
    """``x**2`` by the scalar power the trees' moments use (libm's
    ``pow``, which is not always ``x * x``)."""
    return np.array([v**2 for v in x.tolist()])


class SystemPlan(Mixture):
    """The Equation-3 mixture over ``classes`` (``DeviceClass`` records)
    sharing the frontend ``s_q``, with ``accept_mode`` ``"paper"`` or
    ``"none"`` and M/M/1/K disks; ``trees()`` returns the per-class trees.
    Raises :class:`UnstableQueueError` at the first class with ``rho >= 1``.
    """

    __slots__ = (
        "_s_q", "_laws", "_rows", "_miss", "_p", "_r", "_rho", "_paper",
        "_disks", "_mean", "_atom", "_token", "names", "_trees", "_built",
    )
    has_laplace = True

    def __init__(self, s_q: Distribution, classes, accept_mode: str, trees) -> None:
        devs = [cls.params for cls in classes]
        laws, by_id, by_token = [], {}, {}

        def law(dist) -> int:  # value row of a distinct law: by object, then token
            if id(dist) not in by_id:
                token = dist.cache_token()
                key = id(dist) if token is None else token
                if key not in by_token:
                    by_token[key] = len(laws)
                    laws.append(dist)
                by_id[id(dist)] = by_token[key]
            return by_id[id(dist)]

        # Per class, rows (parse, index, meta, data, stall) into the values
        # [laws, ones, sojourns]; -1 is the ones row or, for N_be > 1, a
        # sojourn row filled in below.
        mm = np.array([d.n_processes > 1 and d.disk_operation_rate > 0.0 for d in devs])
        rows = np.array([
            [law(d.parse)]
            + ([-1] * 3 if m else [law(x) for x in (d.disk.index, d.disk.meta, d.disk.data)])
            + [-1 if c.extra_delay is None else law(c.extra_delay)]
            for d, m, c in zip(devs, mm, classes)
        ], dtype=np.intp)
        rows[rows < 0] = len(laws)
        stats = [(d.mean, d.second_moment, d.atom_at_zero) for d in laws] + [(0.0, 0.0, 1.0)]
        n = np.array([d.n_processes for d in devs], dtype=float)
        r = np.array([d.request_rate for d in devs])
        r_data = np.array([d.data_read_rate for d in devs])
        miss = np.array([(d.miss_ratios.index, d.miss_ratios.meta, d.miss_ratios.data) for d in devs])
        # N_be > 1: an M/M/1/K sojourn of the rate-weighted disk laws
        # serves every disk operation.  (first row, mu, q) per capacity.
        self._disks = []
        for k in np.unique(n[mm]).astype(int):
            group = np.flatnonzero(mm & (n == k))
            ops = miss[group] * np.stack([r[group], r[group], r_data[group]], axis=1)
            disk = [[getattr(devs[j].disk, x).mean for x in ("index", "meta", "data")] for j in group]
            mu = 1.0 / (_normalised(ops) * np.array(disk)).sum(axis=1)
            p = mm1k_state_probabilities(ops.sum(axis=1) / mu, k)
            q = p[:, :-1] / (1.0 - p[:, -1:])
            # Erlang(i + 1, mu) from state i; a matmul of vectors per disk,
            # as MM1KQueue's np.dot sums it.
            i = np.arange(1.0, k + 1)
            mean = (q[:, np.newaxis] @ i[:, np.newaxis])[:, 0, 0] / mu
            second = (q[:, np.newaxis] @ (i * (i + 1))[:, np.newaxis])[:, 0, 0] / _squares(mu)
            rows[group, 1:4] = len(stats) + np.arange(len(group))[:, np.newaxis]
            self._disks.append((len(stats), mu, q))
            stats += zip(mean, second, np.zeros(len(group)))
        g = np.array(stats)[rows]  # (class, role, (mean, second moment, atom))
        (pm, ps, pa), (x1, _, x0) = g[:, 0].T, g[:, 4].T
        d1, d2, d0 = g[:, 1:4].transpose(2, 0, 1)

        # Service B = parse * index * meta * data * Poisson(p) data reads.
        r, r_data = r / n, r_data / n
        p = np.maximum(r_data - r, 0.0) / r
        z1, z2, z0 = miss * d1, miss * d2, (1.0 - miss) + miss * d0
        pois1 = p * z1[:, 2]
        pois2 = p * z2[:, 2] + _squares(pois1)
        b1 = pm + z1[:, 0] + z1[:, 1] + z1[:, 2] + pois1
        var = np.maximum(ps - _squares(pm), 0.0)
        for x, y in [*zip(z1.T, z2.T), (pois1, pois2)]:
            var = var + np.maximum(y - _squares(x), 0.0)
        rho = r * b1
        if np.any(rho >= 1.0):
            j = np.argmax(rho >= 1.0)
            raise UnstableQueueError(
                f"M/G/1 unstable: rho={rho[j]:.4f} >= 1 (rate={r[j]:.4g}/s, "
                f"mean service={b1[j] * 1e3:.4g} ms)"
            )
        w_mean = r * (var + _squares(b1)) / (2.0 * (1.0 - rho))
        # Equation 2: S_q * W_a * W_be * parse * index * meta * data * stall.
        paper = accept_mode == "paper"
        mean = s_q.mean + (w_mean if paper else 0.0) + w_mean + pm
        atom = s_q.atom_at_zero * ((1.0 - rho) if paper else 1.0) * (1.0 - rho) * pa
        for x, y in zip(z1.T, z0.T):
            mean, atom = mean + x, atom * y
        self.weights = _normalised([cls.weight for cls in classes])
        self._mean = float(sum((self.weights * (mean + x1)).tolist()))
        self._atom = float(sum((self.weights * (atom * x0)).tolist()))
        tokens = [s_q.cache_token()] + [d.cache_token() for d in laws]
        self._token = None if None in tokens else (
            "plan", accept_mode, tuple(tokens), rows.tobytes(), miss.tobytes(),
            r.tobytes(), p.tobytes(), self.weights.tobytes(),
            tuple((mu.tobytes(), q.tobytes()) for _, mu, q in self._disks),
        )
        self._s_q, self._laws, self._paper = s_q, laws, paper
        self._rows, self._miss = rows.T, miss.T
        self._r, self._p, self._rho = r, p, rho
        self.names = tuple(d.name for d in devs)
        self._trees, self._built = trees, None

    @property
    def components(self) -> tuple:
        """Every class's Equation-2 distribution tree, built on first read."""
        if self._built is None:
            self._built = tuple(self._trees())
        return self._built

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def atom_at_zero(self) -> float:
        return self._atom

    def utilizations(self) -> dict:
        """Union-operation utilisation of one process, per class name."""
        return dict(zip(self.names, self._rho.tolist()))

    def cache_token(self) -> tuple | None:
        return self._token

    def laplace(self, s):
        s = np.asarray(s, dtype=complex)
        shape = s.shape
        s = s.reshape(shape or (1,))
        col = (slice(None),) + (np.newaxis,) * s.ndim
        n_rows = len(self._laws) + 1 + sum(len(mu) for _, mu, _ in self._disks)
        values = np.empty((n_rows,) + s.shape, complex)
        for i, dist in enumerate(self._laws):
            values[i] = laplace_eval(dist, s)
        values[len(self._laws)] = 1.0
        for start, mu, q in self._disks:
            # sum_i q_i (mu / (mu + s))^(i + 1), summed as MM1KQueue's matmul.
            base = mu[col] / (mu[col] + s)
            powers = base[..., np.newaxis] ** np.arange(1, q.shape[1] + 1)
            q = q.reshape((len(mu),) + (1,) * (s.ndim - 1) + q.shape[1:] + (1,))
            values[start : start + len(mu)] = (powers @ q)[..., 0]
        parse, index, meta, data, extra = (values[row] for row in self._rows)
        m_index, m_meta, m_data = (m[col] for m in self._miss)
        index = m_index * index + (1.0 - m_index)
        meta = m_meta * meta + (1.0 - m_meta)
        data = m_data * data + (1.0 - m_data)
        r, rho = self._r[col], self._rho[col]
        service = parse * index * meta * data * np.exp(self._p[col] * (data - 1.0))
        wait = ((1.0 - rho) * s) / (r * service + s - r)
        latency = laplace_eval(self._s_q, s) * wait
        if self._paper:
            latency = latency * wait
        latency = latency * parse * index * meta * data * extra
        return (self.weights[col] * latency).sum(axis=0).reshape(shape)

    def cdf(self, t, **kwargs):
        return Distribution.cdf(self, t, **kwargs)

    def __repr__(self) -> str:
        return (f"SystemPlan({len(self.names)} classes, {len(self._laws)} leaf laws, "
                f"{sum(len(mu) for _, mu, _ in self._disks)} M/M/1/K disks, accept wait "
                f"{'paper' if self._paper else 'none'}, mean={self._mean:.6g})")
