"""Memoised evaluation of repeated distribution composites.

The model builders re-create structurally identical composites many
times: the three model families share device-level sub-composites, every
SLA evaluation re-inverts transforms at the same quadrature nodes, and
the grid/Laplace cross-validation discretises the same objects twice.
Distributions are immutable values, so evaluation results can be cached
by *value identity*: each distribution exposes
:meth:`~repro.distributions.base.Distribution.cache_token`, a hashable
tuple that two instances share iff they denote the same law.  ``None``
means "not cacheable" (e.g. a :class:`TransformDistribution` wrapping an
opaque closure without an explicit token) and evaluation falls through
uncached.

Caches are LRUs bounded twice: by entry count (:data:`MAX_ENTRIES`)
and by the bytes of the arrays they hold (:data:`MAX_BYTES`), each per
cache.  The byte bound is the one that matters for memory: an inversion
at thousands of points leaves a node-value array of a few megabytes per
composite node, which an entry bound alone lets pile up to hundreds of
megabytes.  Cached arrays are returned read-only so a hit can be handed
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
    "laplace_many",
    "s_context",
    "cached_grid",
    "cached_inversion",
    "clear",
    "stats",
]

#: Per-cache entry bound.
MAX_ENTRIES = 4096

#: Per-cache bound on the bytes of the cached values (``ndarray.nbytes``,
#: or ``probs.nbytes`` for a grid PMF; the ``s`` payload inside the keys
#: is shared per inversion and not charged).  A value larger than this
#: is returned but not stored.  A kofn@2 query's hits reach back at most
#: ~39 MB of more recently used entries; at 32 MiB it loses 42 of its
#: 552 hits and runs slower, at 64 MiB it loses none.
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
_laplace = _Lru()
_grids = _Lru()
_inversions = _Lru()
_caches = (_laplace, _grids, _inversions)
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
        "laplace_entries": len(_laplace),
        "grid_entries": len(_grids),
        "inversion_entries": len(_inversions),
        "laplace_bytes": _laplace.nbytes,
        "grid_bytes": _grids.nbytes,
        "inversion_bytes": _inversions.nbytes,
    }


#: Interned quadrature matrix (identity-compared) and its precomputed
#: ``(shape, bytes)`` key suffix.  An inversion evaluates every node of a
#: composite tree at *one* ``s`` matrix; registering it via
#: :func:`s_context` lets each child lookup skip ``s.tobytes()`` and --
#: because the single ``bytes`` object is reused across keys and CPython
#: caches ``bytes.__hash__`` -- hash the 10s-of-KB payload exactly once.
_s_array: np.ndarray | None = None
_s_key: tuple | None = None


@contextlib.contextmanager
def s_context(s):
    """Intern ``s`` as the shared quadrature matrix for the duration.

    Yields the canonical complex ndarray; callers must evaluate through
    that exact object for the interning to apply (``Scaled`` rescales
    ``s`` and therefore deliberately falls off the fast path).  Contexts
    nest; the previous interned matrix is restored on exit.
    """
    global _s_array, _s_key
    s = np.asarray(s, dtype=complex)
    prev = (_s_array, _s_key)
    _s_array = s
    _s_key = (s.shape, s.tobytes())
    try:
        yield s
    finally:
        _s_array, _s_key = prev


def _key_suffix(s: np.ndarray) -> tuple:
    """``(shape, bytes)`` of ``s``, reusing the interned copy when registered."""
    if s is _s_array:
        return _s_key
    return (s.shape, s.tobytes())


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
    """``dist.laplace(s)``, memoised on ``(cache_token, s)``.

    Composites call this on their children, so a sub-composite shared by
    several models (or evaluated at the same quadrature nodes twice) is
    computed once.  The returned array is read-only.
    """
    _calls["laplace"] += 1
    s = np.asarray(s, dtype=complex)
    token = dist.cache_token() if _enabled else None
    if token is None:
        return dist.laplace(s)
    _validate_token(dist, token)
    key = (token,) + _key_suffix(s)
    value = _laplace.get(key)
    if value is None:
        value = np.asarray(dist.laplace(s))
        if value.flags.writeable:
            value.setflags(write=False)
        _laplace.put(key, value)
    return value


def laplace_many(dists, s) -> list:
    """Evaluate ``laplace`` for every distribution at shared nodes ``s``.

    Batched sibling of :func:`laplace_eval` for the factors of a product
    (:class:`~repro.distributions.composite.Convolution`) or the branches
    of a mixture: the ``s`` canonicalisation and key suffix are computed
    once and shared across all children instead of once per child.  Hit
    and miss results are byte-identical to per-child :func:`laplace_eval`
    calls, so swapping one for the other cannot change any artifact.
    """
    s = np.asarray(s, dtype=complex)
    if not _enabled:
        _calls["laplace"] += len(dists)
        return [d.laplace(s) for d in dists]
    suffix = _key_suffix(s)
    out = []
    append = out.append
    for dist in dists:
        _calls["laplace"] += 1
        token = dist.cache_token()
        if token is None:
            append(dist.laplace(s))
            continue
        _validate_token(dist, token)
        key = (token,) + suffix
        value = _laplace.get(key)
        if value is None:
            value = np.asarray(dist.laplace(s))
            if value.flags.writeable:
                value.setflags(write=False)
            _laplace.put(key, value)
        append(value)
    return out


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
