"""Background maintenance scans (Swift auditors / replicators).

Production Swift backends never serve requests from a quiet machine:

* the **object replicator** walks the whole namespace (rsync listings),
  touching every inode -- index-cache traffic;
* the **object auditor** stats every object and reads its xattrs and
  full contents to verify checksums -- metadata- and page-cache traffic
  (2016-era Swift read audit data through the buffered page cache; the
  resulting pollution was a known operational issue).

All three walks proceed at roughly constant rates, *uniformly* over the
namespace and independently of request popularity.  Their visible effect
on the caches is steady pollution: cold entries stream through, so
whether a request's index lookup / metadata read / data read hits is no
longer a deterministic function of object popularity -- which is the
regime the paper's independent ``m_index/m_meta/m_data`` model
describes.

We model the cache-side effect only (auditor disk I/O is rate-limited
and absorbed into the benchmarked service-time distributions): three
cyclic uniform walks, each following a *different* stride permutation of
the object space so the sets they keep resident are mutually
pseudo-independent.  The scanner is advanced lazily from request
arrivals (no self-scheduling events), so an idle simulation still
drains; touch counts are exact in aggregate (``rate * elapsed``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator.cache import StampLru, chunk_ids

__all__ = ["MaintenanceScanner"]

#: Upper bound on touches applied per kind in one lazy advance (guards a
#: long idle gap; after a full cache turnover more touches are moot).
_MAX_BATCH = 20_000

#: Lower bound on accrued touches before a lazy advance applies them.
#: The scan is already an interleaving approximation (touches land at
#: request arrivals, not at their true clock times); deferring tiny
#: batches keeps the aggregate touch count exact while amortising the
#: per-advance overhead over a useful batch.  At testbed scan rates this
#: quantum spans a few tens of milliseconds of simulated time.
_MIN_ADVANCE = 128.0


def _coprime_stride(n: int, fraction: float) -> int:
    """A stride near ``fraction * n`` that is coprime with ``n`` (so the
    strided walk visits every object before repeating)."""
    stride = max(1, int(fraction * n)) % n or 1
    while math.gcd(stride, n) != 1:
        stride = (stride + 1) % n or 1
    return stride


class _Walk:
    """One cyclic strided walk over ``n`` objects."""

    __slots__ = ("n", "stride", "pos", "carry", "speed")

    def __init__(self, n: int, stride: int, phase: int, speed: float) -> None:
        self.n = n
        self.stride = stride
        self.pos = phase % n
        self.carry = 0.0
        self.speed = speed

    def take(self, budget: float) -> int:
        self.carry += budget * self.speed
        count = min(int(self.carry), _MAX_BATCH)
        self.carry -= count
        return count

    def step(self) -> int:
        out = self.pos
        self.pos = (self.pos + self.stride) % self.n
        return out

    def steps(self, count: int) -> np.ndarray:
        """The next ``count`` positions (int64) in one batched draw;
        identical to ``count`` successive :meth:`step` calls."""
        pos, stride, n = self.pos, self.stride, self.n
        end = pos + stride * count
        self.pos = end % n
        out = np.arange(pos, end, stride, dtype=np.int64)
        if end - stride >= n:  # the walk wraps inside this batch
            np.remainder(out, n, out=out)
        return out


class MaintenanceScanner:
    """Uniform cyclic cache-touch process for one backend server."""

    __slots__ = (
        "index_cache",
        "meta_cache",
        "data_cache",
        "chunk_base",
        "rate",
        "data_rate_fraction",
        "_index_walk",
        "_meta_walk",
        "_data_walk",
        "_last_time",
        "touches",
    )

    def __init__(
        self,
        index_cache: StampLru,
        meta_cache: StampLru,
        data_cache: StampLru | None,
        chunk_base: np.ndarray,
        rate: float,
        *,
        data_rate_fraction: float = 0.5,
        start_time: float = 0.0,
        phase: int = 0,
    ) -> None:
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        if not 0.0 <= data_rate_fraction < math.inf:
            raise ValueError(
                f"data_rate_fraction must be finite and >= 0, got {data_rate_fraction}"
            )
        n = int(chunk_base.size) - 1
        if n < 1:
            raise ValueError("need at least one object")
        self.index_cache = index_cache
        self.meta_cache = meta_cache
        self.data_cache = data_cache
        # Object ``obj``'s chunk ids in the data cache start at
        # ``chunk_base[obj]`` (``cache.chunk_layout``, shared by every
        # server of a cluster).
        self.chunk_base = chunk_base
        self.rate = rate
        self.data_rate_fraction = data_rate_fraction
        # Three mutually pseudo-independent permutation walks: the
        # replicator in natural order, the auditor xattr pass and data
        # pass on golden-ratio-flavoured strides.
        self._index_walk = _Walk(n, 1, phase, 1.0)
        self._meta_walk = _Walk(n, _coprime_stride(n, 0.6180339887), phase, 0.85)
        self._data_walk = _Walk(
            n, _coprime_stride(n, 0.3819660113), phase, data_rate_fraction
        )
        self._last_time = start_time
        self.touches = 0

    def advance(self, now: float) -> None:
        """Apply all scan touches that accrued since the last advance."""
        # Single-branch early exit: a zero rate or a non-advancing clock
        # both give ``budget <= 0 < _MIN_ADVANCE``, so the one comparison
        # covers every keep-accruing case.  This runs once per request.
        budget = (now - self._last_time) * self.rate
        if budget < _MIN_ADVANCE:
            return  # keep accruing; a later advance applies the backlog
        self._last_time = now

        walk = self._index_walk
        count = walk.take(budget)
        if count:
            self.index_cache.access_many(walk.steps(count))
            self.touches += count

        walk = self._meta_walk
        count = walk.take(budget)
        if count:
            self.meta_cache.access_many(walk.steps(count))
            self.touches += count

        if self.data_cache is not None:
            walk = self._data_walk
            count = walk.take(budget)
            if count:
                self.data_cache.access_many(
                    chunk_ids(self.chunk_base, walk.steps(count))
                )
                self.touches += count
