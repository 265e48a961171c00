"""Memoised grid discretisations and CDF inversions.

Two evaluations are worth keeping across calls: a lattice
discretisation (the redundant models' FFT compositions re-discretise
the same per-device laws for every replica row) and a whole CDF
inversion (a warm SLA query on an equal model asks for the same times).
Distributions are immutable values, so results are cached by *value
identity*: each distribution exposes
:meth:`~repro.distributions.base.Distribution.cache_token`, a hashable
tuple that two instances share iff they denote the same law.  ``None``
means "not cacheable" (e.g. a :class:`TransformDistribution` wrapping an
opaque closure without an explicit token) and evaluation falls through
uncached.

Transforms are not memoised.  A model's system transform is one
compiled plan (:class:`~repro.model.plan.SystemPlan`) whose leaf laws
are each evaluated once per node array, and an inversion's nodes are
never asked for twice, so a Laplace memo stored far more than it
served.  :func:`laplace_eval` only counts the transform evaluations it
routes (``stats()["laplace_calls"]``).

Caches are LRUs bounded twice: by entry count (:data:`MAX_ENTRIES`)
and by the bytes of the arrays they hold (:data:`MAX_BYTES`), each per
cache.  Cached arrays are returned read-only so a hit can be handed
out without copying.  Determinism note: a cache hit returns exactly what
the original evaluation produced, and an eviction only means the value
is recomputed, so memoisation can never change results -- which the
parallel-vs-serial bit-identity test relies on.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict

import numpy as np

__all__ = [
    "laplace_eval",
    "cached_grid",
    "cached_inversion",
    "clear",
    "stats",
]

#: Per-cache entry bound.
MAX_ENTRIES = 4096

#: Per-cache bound on the bytes of the cached values (``ndarray.nbytes``,
#: or ``probs.nbytes`` for a grid PMF; keys are not charged).  A value
#: larger than this is returned but not stored.
MAX_BYTES = 64 * 2**20


def _charge(value) -> int:
    """Bytes an entry is charged: its array payload, else 0."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    probs = getattr(value, "probs", None)
    return probs.nbytes if isinstance(probs, np.ndarray) else 0


class _Lru:
    """An LRU bounded by :data:`MAX_ENTRIES` entries and by
    :data:`MAX_BYTES` of held value arrays."""

    __slots__ = ("_entries", "nbytes", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached value (now most recent) or ``None``; counts a hit."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, value) -> None:
        """Store ``value`` under ``key``, counting a miss, then trim.

        Storing a held key replaces its value and its charge in place.
        """
        self.misses += 1
        entries = self._entries
        charge = _charge(value)
        if charge > MAX_BYTES:
            old = entries.pop(key, None)
            if old is not None:
                self.nbytes -= old[1]
            return
        n = len(entries)
        entries[key] = (value, charge)  # one hash of the (deep) key
        if len(entries) == n:  # a held key: recount rather than hash twice
            self.nbytes = sum(c for _, c in entries.values())
        else:
            self.nbytes += charge
        if len(entries) > MAX_ENTRIES or self.nbytes > MAX_BYTES:
            self.trim()

    def trim(self) -> None:
        """Evict least-recent entries until both bounds hold."""
        entries = self._entries
        while len(entries) > MAX_ENTRIES or self.nbytes > MAX_BYTES:
            self.nbytes -= entries.popitem(last=False)[1][1]
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_enabled = True
_grids = _Lru()
_inversions = _Lru()
_caches = (_grids, _inversions)
_calls = {"laplace": 0, "grid": 0, "inversion": 0}


@contextlib.contextmanager
def bypass():
    """Temporarily disable memoisation *without* dropping cached entries.

    Every entry stays in place; evaluation simply falls through uncached
    for the duration.  The diagnostics layer needs exactly that: its
    cross-check and half-term re-inversions must not insert entries (or
    trigger LRU evictions) that would perturb the cache state the
    instrumented run sees, or an enabled :class:`DiagnosticsSession`
    could change which main-path evaluations hit the memo.
    """
    global _enabled
    prev = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = prev


def clear() -> None:
    """Drop every cached evaluation."""
    for cache in _caches:
        cache.clear()
    for k in _calls:
        _calls[k] = 0


def stats() -> dict:
    """Hit/miss/eviction counters, cache sizes and held bytes.

    Read by the benchmark's traced runs and stamped into run manifests, so the
    provenance record of an artifact shows how hard the memo layer
    worked, how much memory it held, and whether a bound was ever hit.
    """
    return {
        "hits": sum(c.hits for c in _caches),
        "misses": sum(c.misses for c in _caches),
        "evictions": sum(c.evictions for c in _caches),
        "max_entries": MAX_ENTRIES,
        "max_bytes": MAX_BYTES,
        "laplace_calls": _calls["laplace"],
        "grid_calls": _calls["grid"],
        "inversion_calls": _calls["inversion"],
        "grid_entries": len(_grids),
        "inversion_entries": len(_inversions),
        "grid_bytes": _grids.nbytes,
        "inversion_bytes": _inversions.nbytes,
    }


def _validate_token(dist, token) -> None:
    """Fail loudly on tokens that would corrupt or crash the cache.

    A ``cache_token()`` that returns an unhashable value (a list, a bare
    ndarray, ...) would otherwise surface as an anonymous ``TypeError``
    deep inside the LRU's dict lookup -- or worse, a token built from a
    *mutable* object could hash differently between store and lookup and
    silently serve stale results.  Name the offending distribution type
    so the bug is attributable at the call site.
    """
    try:
        hash(token)
    except TypeError as exc:
        raise TypeError(
            f"cache_token() of {type(dist).__name__} returned an unhashable "
            f"value {token!r}; tokens must be immutable value identities "
            "(return None to opt out of caching)"
        ) from exc


def laplace_eval(dist, s) -> np.ndarray:
    """``dist.laplace(s)``, counted in ``stats()["laplace_calls"]``.

    Composites evaluate their children through this, so the count is
    the number of transform nodes an evaluation visited.
    """
    _calls["laplace"] += 1
    return dist.laplace(s)


def cached_grid(dist, dt: float, n: int, compute):
    """Memoise a grid discretisation on ``(cache_token, dt, n)``.

    ``compute`` builds the :class:`~repro.distributions.grid.GridPMF`
    on a miss.  Grid PMFs hold read-only probability arrays, so a shared
    instance is safe to return.
    """
    _calls["grid"] += 1
    token = dist.cache_token() if _enabled else None
    if token is None:
        return compute()
    _validate_token(dist, token)
    key = (token, float(dt), int(n))
    value = _grids.get(key)
    if value is None:
        value = compute()
        _grids.put(key, value)
    return value


def cached_inversion(
    dist,
    method: str,
    terms: int,
    mollify_width: float,
    t: np.ndarray,
    compute,
    *,
    _pointwise: bool = False,
):
    """Memoise a full CDF inversion result for one distribution.

    Keyed on the distribution's value token plus every inversion knob
    and the (flattened) evaluation times; returns a read-only array.
    A point-wise batch (see :func:`repro.laplace.invert_cdf`) skips the
    monotone repair, so it never shares an entry with a repaired batch
    of the same times.
    """
    _calls["inversion"] += 1
    token = dist.cache_token() if _enabled else None
    if token is None:
        return compute()
    _validate_token(dist, token)
    t = np.ascontiguousarray(t, dtype=float)
    key = (token, method, int(terms), float(mollify_width), _pointwise, t.shape, t.tobytes())
    value = _inversions.get(key)
    if value is None:
        value = np.asarray(compute(), dtype=float)
        if value.flags.writeable:
            value.setflags(write=False)
        _inversions.put(key, value)
    return value
