"""LRU cache models of a backend server's memory.

The paper's cost argument (Section II): backend servers deliberately lack
the memory to cache all index & metadata (Wikipedia's Swift cluster runs
RAM-to-disk ratios of 1:300 to 1:800), so index lookups, metadata reads
*and* data reads all miss with workload-dependent ratios -- the
``m_index, m_meta, m_data`` online metrics of the model.

Two exact LRUs with byte-accurate charging stand in for the Linux page
cache + XFS inode/dentry caches of the testbed; one set per backend
server, since all devices on a server share its memory:

* :class:`StampLru` for the index and metadata caches, whose entries all
  have one size and are keyed by object id.  The maintenance scanner
  streams millions of touches through these, so a whole scan batch is
  applied with a few array operations.
* :class:`LruCache`, a plain ordered-dict LRU over ``(object, chunk)``
  keys of varying size, for the data (page) cache.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["LruCache", "StampLru"]


class LruCache:
    """LRU cache with a byte capacity.

    ``access`` is the single hot entry point: it returns whether the key
    was resident (hit) and, on a miss, admits it -- matching page-cache
    fill-on-read semantics.  Entries larger than the whole capacity are
    never admitted.
    """

    __slots__ = (
        "capacity_bytes",
        "_entries",
        "used_bytes",
        "hits",
        "misses",
    )

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[tuple, int] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def access(self, key, size: int) -> bool:
        """Touch ``key``; returns True on hit.  Misses are admitted."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._admit(key, size)
        return False

    def _admit(self, key, size: int) -> None:
        size = int(size)
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if size > self.capacity_bytes:
            return  # larger than memory: read-through, never cached
        entries = self._entries
        while self.used_bytes + size > self.capacity_bytes:
            _old, old_size = entries.popitem(last=False)
            self.used_bytes -= old_size
        entries[key] = size
        self.used_bytes += size

    def access_pairs(self, pairs) -> int:
        """Touch ``(key, size)`` pairs in order; returns the hit count.

        Exactly equivalent to calling :meth:`access` per pair; this is the
        data-cache path of the maintenance scan.
        """
        entries = self._entries
        move = entries.move_to_end
        pop = entries.popitem
        cap = self.capacity_bytes
        used = self.used_bytes
        if not isinstance(pairs, list):
            pairs = list(pairs)
        # Bulk path: the maintenance data walk streams through a cache
        # far larger than one batch, so batches are usually distinct
        # keys none of which is resident.  Then every pair is a miss
        # admitted in order, and because LRU evicts strictly
        # oldest-first the final state is the old entries with the
        # minimal front prefix evicted to make the whole batch fit,
        # followed by the batch itself -- appliable with C-level bulk
        # operations instead of the per-pair loop.
        if pairs:
            sizes = [p[1] for p in pairs]
            total = sum(sizes)
            if 0 < total <= cap and min(sizes) >= 0:
                keyset = {p[0] for p in pairs}
                if len(keyset) == len(pairs) and entries.keys().isdisjoint(
                    keyset
                ):
                    target = cap - total
                    while used > target:
                        _old, old_size = pop(last=False)
                        used -= old_size
                    entries.update(pairs)
                    self.used_bytes = used + total
                    self.misses += len(pairs)
                    return 0
        hits = 0
        misses = 0
        for key, size in pairs:
            if key in entries:
                move(key)
                hits += 1
                continue
            misses += 1
            if size > cap:
                continue
            if size < 0:
                raise ValueError(f"size must be >= 0, got {size}")
            while used + size > cap:
                _old, old_size = pop(last=False)
                used -= old_size
            entries[key] = size
            used += size
        self.used_bytes = used
        self.hits += hits
        self.misses += misses
        return hits

    def install_tail_reversed(self, rev_pairs) -> None:
        """Install the exact final state of replaying ``(key, size)``
        accesses into an *empty* cache, without the replay.

        LRU evicts strictly oldest-first, so the survivors of any replay
        are a suffix of the distinct keys in last-access order: scan the
        stream backwards, keep distinct keys while they fit, and stop at
        the first key that does not (every older key was necessarily
        evicted before it).  ``rev_pairs`` yields ``(key, size)`` in
        *reverse* access order (so the caller can generate it lazily and
        benefit from the early stop).  Requires an empty cache and a
        stable size per key, both guaranteed by the warmup replay.
        Oversize entries are never admitted by LRU and are transparent
        here too.
        """
        if self._entries:
            raise ValueError("install_tail requires an empty cache")
        cap = self.capacity_bytes
        seen = set()
        add = seen.add
        survivors = []  # most-recent-first
        append = survivors.append
        used = 0
        for key, size in rev_pairs:
            if key in seen:
                continue
            add(key)
            if size > cap:
                continue
            if used + size > cap:
                break
            append((key, size))
            used += size
        self._entries = OrderedDict(reversed(survivors))
        self.used_bytes = used

    def evict(self, key) -> bool:
        """Drop one entry (used by failure-injection tests)."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # snapshot / restore (warm-state reuse by the parallel sweep engine)
    # ------------------------------------------------------------------
    def state(self) -> tuple:
        """A picklable snapshot of the resident set, in LRU order."""
        return (tuple(self._entries.items()), self.used_bytes)

    def restore(self, state: tuple) -> None:
        """Install a snapshot taken by :meth:`state` (counters reset)."""
        entries, used_bytes = state
        self._entries = OrderedDict(entries)
        self.used_bytes = int(used_bytes)
        self.hits = 0
        self.misses = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LruCache(used={self.used_bytes}/{self.capacity_bytes} bytes, "
            f"entries={len(self._entries)}, hit_ratio={self.hit_ratio:.3f})"
        )


class StampLru:
    """Exact LRU over uniform-size entries keyed by ints in ``[0, n_keys)``.

    The index and metadata caches hold one entry size each and are keyed
    by object id, so the resident set is exactly the ``slots`` most
    recently touched distinct keys.  The state is two arrays and two
    positions ``1 <= _front <= _next``:

    * ``_buf[s]`` -- the key touched at stamp ``s``; every touch takes
      the next stamp.  The entry is *alive* iff that key's stamp is
      still ``s``: a later touch or an :meth:`evict` leaves a dead hole.
      Alive entries from ``_front`` up to ``_next`` are the resident set
      in LRU order.
    * ``_stamp[key]`` -- the key's last-touch stamp; 0 for a key never
      touched since the last compaction.  A key is resident iff its
      stamp is ``>= _front``.
    * ``_front`` only moves forward: evicting the LRU entry is stepping
      it past the oldest alive entry.  When the buffer fills, the alive
      entries are compacted to its start and every other stamp is
      zeroed.

    :meth:`access_many` applies a batch of touches with array operations
    and leaves hits, misses, the resident set and its LRU order exactly
    as the same touches through :meth:`access` would.  The scalar path
    reads the arrays through memoryviews (numpy scalar indexing is
    several times slower).  The ``size`` argument of :meth:`access`
    keeps the call sites shared with :class:`LruCache`; it must equal
    ``entry_bytes``.
    """

    __slots__ = (
        "capacity_bytes",
        "entry_bytes",
        "slots",
        "hits",
        "misses",
        "_count",
        "_front",
        "_next",
        "_stamp",
        "_buf",
        "_sv",
        "_bv",
        "_ar",
    )

    def __init__(self, capacity_bytes: int, entry_bytes: int, n_keys: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        if entry_bytes < 0:
            raise ValueError(f"entry size must be >= 0, got {entry_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.entry_bytes = int(entry_bytes)
        if entry_bytes > capacity_bytes:
            slots = 0  # larger than memory: read-through, never cached
        elif entry_bytes == 0:
            slots = n_keys
        else:
            slots = min(capacity_bytes // entry_bytes, n_keys)
        self.slots = slots
        self.hits = 0
        self.misses = 0
        self._stamp = np.zeros(n_keys, dtype=np.int64)
        # Stamps 1..2*slots (0 is "not resident"): a compaction leaves at
        # most ``slots`` alive, so one batch window (<= slots) always fits.
        self._buf = np.zeros(2 * slots + 1, dtype=np.int64)
        self._sv = memoryview(self._stamp)
        self._bv = memoryview(self._buf)
        self._ar = np.arange(self._buf.size, dtype=np.int64)
        self._count = 0
        self._front = self._next = 1

    # ------------------------------------------------------------------
    # scalar path (request traffic)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return self._sv[key] >= self._front

    @property
    def used_bytes(self) -> int:
        return self._count * self.entry_bytes

    def access(self, key, size: int | None = None) -> bool:
        """Touch ``key``; returns True on hit.  Misses are admitted."""
        sv = self._sv
        hit = sv[key] >= self._front
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            if self._count < self.slots:
                self._count += 1
            elif self.slots:
                self._evict_oldest()
            else:
                return False
        nxt = self._next
        if nxt == len(self._bv):
            self._compact()
            nxt = self._next
        self._bv[nxt] = key
        sv[key] = nxt
        self._next = nxt + 1
        return hit

    def _evict_oldest(self) -> None:
        sv, bv = self._sv, self._bv
        front = self._front
        while sv[bv[front]] != front:
            front += 1  # dead hole: touched again later, or evicted
        self._front = front + 1

    def evict(self, key) -> bool:
        """Drop one entry (the DELETE path); False if it was not resident."""
        if self._sv[key] < self._front:
            return False
        self._sv[key] = 0
        self._count -= 1
        return True

    def clear(self) -> None:
        self._front = self._next
        self._count = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # batch path (maintenance scan, warm-up)
    # ------------------------------------------------------------------
    def access_many(self, keys) -> int:
        """Touch ``keys`` in order; returns the number of hits.

        Exactly equivalent to calling :meth:`access` per key.  The batch
        is applied in windows of at most ``slots`` keys, each cut at its
        first repeated key and at its first would-be hit that an earlier
        miss of the window would evict (see :meth:`_apply`).
        """
        keys = np.asarray(keys, dtype=np.int64)
        m = keys.size
        if not self.slots:
            self.misses += m
            return 0
        hits = self.hits
        window = self.slots
        pos = 0
        while pos < m:
            step = self._apply(keys[pos : pos + window])
            pos += step
            # Short steps mean repeat-dense keys: shrink the window so a
            # step never costs much more than the keys it applies.
            window = min(self.slots, max(4 * step, 1024))
        return self.hits - hits

    def _apply(self, part: np.ndarray) -> int:
        """Apply the longest safely vectorisable prefix of ``part``
        (``1 <= len(part) <= slots``); returns its length.

        With distinct keys, every touched key ends at the MRU end in
        batch order and the ``misses - free slots`` evictions take the
        oldest entries at batch start -- unless one of those entries is
        a key of the batch (a would-be hit), which sequential access
        would evict before touching it.  Cutting the batch just before
        the first such key leaves a prefix whose eviction zone is a
        sub-zone of the whole batch's and so holds none of its hits.
        The first key of any batch is safe, so every call makes progress.
        """
        if self._next + part.size > self._buf.size:
            self._compact()
        stamp = self._stamp
        front = self._front
        m = part.size
        old = stamp[part]
        hit = old >= front
        nh = np.count_nonzero(hit)
        free = self.slots - self._count
        n_evict = max(m - nh - free, 0)
        if n_evict:
            alive = self._alive_offsets(n_evict)
            if nh:
                endangered = hit & (old <= front + alive[n_evict - 1])
                if np.count_nonzero(endangered):
                    m = max(int(endangered.argmax()), 1)
                    part, hit = part[:m], hit[:m]
                    nh = np.count_nonzero(hit)
                    n_evict = max(m - nh - free, 0)
        nxt = self._next
        new = self._ar[nxt : nxt + m]
        stamp[part] = new
        if np.count_nonzero(stamp[part] != new):
            # A repeated key: only one of its writes reads back.  Undo
            # (every copy of a key wrote back the same old stamp) and
            # apply the distinct run before the first repeat instead.
            stamp[part] = old[:m]
            first = np.ones(m, dtype=bool)
            first[np.unique(part, return_index=True)[1]] = False
            return self._apply(part[: first.argmax()])
        if n_evict:
            self._front = front + int(alive[n_evict - 1]) + 1
        self._buf[nxt : nxt + m] = part
        self._next = nxt + m
        self._count += m - nh - n_evict
        self.hits += nh
        self.misses += m - nh
        return m

    def _alive_offsets(self, k: int) -> np.ndarray:
        """Offsets from ``_front`` of at least the ``k`` oldest resident
        entries (``k <= len(self)``), ascending."""
        lo = self._front
        hi = self._next
        width = k + (k >> 1) + 8
        while True:
            end = min(lo + width, hi)
            stamps = self._stamp[self._buf[lo:end]]
            alive = (stamps == self._ar[lo:end]).nonzero()[0]
            if alive.size >= k or end == hi:
                return alive
            width *= 2

    def _compact(self) -> None:
        """Move the alive entries to the start of the buffer (the entry
        count is the caller's: a scalar miss has already counted the key
        it is about to add)."""
        self._load(self.state())

    def _load(self, keys: np.ndarray) -> None:
        """Make ``keys`` (distinct, LRU order) the resident entries."""
        c = keys.size
        self._stamp.fill(0)
        self._stamp[keys] = self._ar[1 : c + 1]
        self._buf[1 : c + 1] = keys
        self._front = 1
        self._next = c + 1

    def install_tail(self, keys) -> None:
        """Install the exact final state of replaying ``keys`` into an
        *empty* cache, without the replay.

        The survivors are the ``slots`` distinct keys with the latest
        last access, in last-access order.  Counters are not updated
        (the warm-up path resets them immediately afterwards).
        """
        if self._count:
            raise ValueError("install_tail requires an empty cache")
        keys = np.asarray(keys, dtype=np.int64)
        if not self.slots or not keys.size:
            return
        last = np.full(self._stamp.size, -1, dtype=np.int64)
        np.maximum.at(last, keys, np.arange(keys.size, dtype=np.int64))
        seen = np.flatnonzero(last >= 0)
        # Last-access positions are distinct, so any sort kind is exact.
        order = seen[np.argsort(last[seen])]
        survivors = order[order.size - min(order.size, self.slots) :]
        self._load(survivors)
        self._count = survivors.size

    # ------------------------------------------------------------------
    # snapshot / restore (warm-state reuse by the parallel sweep engine)
    # ------------------------------------------------------------------
    def state(self) -> np.ndarray:
        """A picklable snapshot: the resident keys, least recently used
        first."""
        seg = self._buf[self._front : self._next]
        return seg[self._stamp[seg] == self._ar[self._front : self._next]]

    def restore(self, state: np.ndarray) -> None:
        """Install a snapshot taken by :meth:`state` (counters reset)."""
        keys = np.asarray(state, dtype=np.int64)
        if keys.size > self.slots:
            raise ValueError(
                f"snapshot holds {keys.size} entries, capacity is {self.slots}"
            )
        self._load(keys)
        self._count = keys.size
        self.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StampLru(used={self.used_bytes}/{self.capacity_bytes} bytes, "
            f"entries={self._count}, hits={self.hits}, misses={self.misses})"
        )
