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

Caches are bounded LRUs; cached arrays are returned read-only so a hit
can be handed out without copying.  Determinism note: a cache hit
returns exactly what the original evaluation produced, so memoisation
can never change results -- which the parallel-vs-serial bit-identity
test relies on.
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
    "set_enabled",
    "set_max_entries",
]

#: Per-cache entry bound.  Entries are small (arrays of quadrature-node
#: values, grid PMFs of a few thousand floats), so the memory ceiling is
#: a few tens of megabytes in the worst case.  Adjustable at runtime via
#: :func:`set_max_entries` (long parameter sweeps may want it smaller).
MAX_ENTRIES = 4096

_enabled = True
_max_entries = MAX_ENTRIES
_laplace: OrderedDict[tuple, np.ndarray] = OrderedDict()
_grids: OrderedDict[tuple, object] = OrderedDict()
_inversions: OrderedDict[tuple, np.ndarray] = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0
_calls = {"laplace": 0, "grid": 0, "inversion": 0}


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable memoisation (used by benchmarks/tests)."""
    global _enabled
    _enabled = bool(enabled)
    if not _enabled:
        clear()


@contextlib.contextmanager
def bypass():
    """Temporarily disable memoisation *without* dropping cached entries.

    Unlike :func:`set_enabled(False) <set_enabled>` -- which clears the
    caches so stale state cannot linger across a configuration change --
    this leaves every entry in place and simply falls through uncached
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


def set_max_entries(n: int) -> None:
    """Re-bound each LRU to ``n`` entries, evicting immediately if over."""
    global _max_entries, _evictions
    if n < 1:
        raise ValueError(f"max entries must be >= 1, got {n}")
    _max_entries = int(n)
    for cache in (_laplace, _grids, _inversions):
        while len(cache) > _max_entries:
            cache.popitem(last=False)
            _evictions += 1


def clear() -> None:
    """Drop every cached evaluation."""
    global _hits, _misses, _evictions
    _laplace.clear()
    _grids.clear()
    _inversions.clear()
    _hits = 0
    _misses = 0
    _evictions = 0
    for k in _calls:
        _calls[k] = 0


def stats() -> dict:
    """Hit/miss/eviction counters and cache sizes.

    Consumed by the perf harness and stamped into run manifests, so the
    provenance record of an artifact shows how hard the memo layer
    worked (and whether the LRU bound was ever hit).
    """
    return {
        "hits": _hits,
        "misses": _misses,
        "evictions": _evictions,
        "max_entries": _max_entries,
        "laplace_calls": _calls["laplace"],
        "grid_calls": _calls["grid"],
        "inversion_calls": _calls["inversion"],
        "laplace_entries": len(_laplace),
        "grid_entries": len(_grids),
        "inversion_entries": len(_inversions),
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
    deep inside ``OrderedDict.get`` -- or worse, a token built from a
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


def _lookup(cache: OrderedDict, key):
    global _hits
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        _hits += 1
    return value


def _store(cache: OrderedDict, key, value) -> None:
    global _misses, _evictions
    _misses += 1
    cache[key] = value
    while len(cache) > _max_entries:
        cache.popitem(last=False)
        _evictions += 1


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
    value = _lookup(_laplace, key)
    if value is None:
        value = np.asarray(dist.laplace(s))
        if value.flags.writeable:
            value.setflags(write=False)
        _store(_laplace, key, value)
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
        value = _lookup(_laplace, key)
        if value is None:
            value = np.asarray(dist.laplace(s))
            if value.flags.writeable:
                value.setflags(write=False)
            _store(_laplace, key, value)
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
    value = _lookup(_grids, key)
    if value is None:
        value = compute()
        _store(_grids, key, value)
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
    value = _lookup(_inversions, key)
    if value is None:
        value = np.asarray(compute(), dtype=float)
        if value.flags.writeable:
            value.setflags(write=False)
        _store(_inversions, key, value)
    return value
