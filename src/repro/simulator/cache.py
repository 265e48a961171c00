"""LRU cache models of a backend server's memory.

The paper's cost argument (Section II): backend servers deliberately lack
the memory to cache all index & metadata (Wikipedia's Swift cluster runs
RAM-to-disk ratios of 1:300 to 1:800), so index lookups, metadata reads
*and* data reads all miss with workload-dependent ratios -- the
``m_index, m_meta, m_data`` online metrics of the model.

One exact LRU with byte-accurate charging, :class:`StampLru`, stands in
for the Linux page cache and the XFS inode/dentry caches of the
testbed; one set per backend server, since all devices on a server
share its memory:

* the index and metadata caches hold one entry size each and are keyed
  by object id;
* the data (page) cache is keyed by chunk id, ``chunk_base[obj] + idx``
  (see :func:`chunk_layout`), each chunk charged its own byte size.

The maintenance scanner streams millions of touches through all three,
so a whole scan batch is applied with a few array operations.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StampLru", "chunk_ids", "chunk_layout"]


def chunk_layout(object_sizes: np.ndarray, chunk_bytes: int):
    """The data cache's key space: ``(chunk_base, chunk_sizes)``.

    Object ``obj`` owns the chunk ids ``chunk_base[obj]`` up to
    ``chunk_base[obj + 1]`` (``n_objects + 1`` int64 entries); every
    chunk is ``chunk_bytes`` long except each object's last, which
    holds the remainder.
    """
    sizes = np.asarray(object_sizes, dtype=np.int64)
    n_chunks = np.maximum(1, -(-sizes // chunk_bytes))
    chunk_base = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(n_chunks, out=chunk_base[1:])
    chunk_sizes = np.full(int(chunk_base[-1]), chunk_bytes, dtype=np.int64)
    chunk_sizes[chunk_base[1:] - 1] = sizes - (n_chunks - 1) * chunk_bytes
    return chunk_base, chunk_sizes


def chunk_ids(chunk_base: np.ndarray, objs: np.ndarray) -> np.ndarray:
    """Every chunk id of ``objs`` (int64), object by object in order."""
    first = chunk_base[objs]
    n_chunks = chunk_base[objs + 1] - first
    total = int(n_chunks.sum())
    if total == objs.size:  # dominant: every object fits one chunk
        return first
    starts = np.cumsum(n_chunks) - n_chunks
    return np.arange(total, dtype=np.int64) + np.repeat(first - starts, n_chunks)


class StampLru:
    """Exact byte-budget LRU over keys ``[0, n_keys)`` of fixed sizes.

    ``entry_bytes`` is one size for every key (the index and metadata
    caches) or an array of ``n_keys`` per-key sizes (the data cache's
    chunks).  Keys larger than the whole capacity are never admitted.
    The state is two arrays and two positions ``1 <= _front <= _next``:

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
    and leaves hits, misses, used bytes, the resident set and its LRU
    order exactly as the same touches through :meth:`access` would.
    The scalar path reads the arrays through memoryviews (numpy scalar
    indexing is several times slower).
    """

    __slots__ = (
        "capacity_bytes",
        "slots",
        "used_bytes",
        "hits",
        "misses",
        "_count",
        "_front",
        "_next",
        "_size",
        "_unit",
        "_oversize",
        "_stamp",
        "_buf",
        "_sv",
        "_bv",
        "_zv",
        "_ar",
    )

    def __init__(self, capacity_bytes: int, entry_bytes, n_keys: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = cap = int(capacity_bytes)
        if np.ndim(entry_bytes) == 0:
            unit = int(entry_bytes)
            if unit < 0:
                raise ValueError(f"entry size must be >= 0, got {unit}")
            # One size for every key: a zero-stride view, no per-key array.
            self._size = np.broadcast_to(np.int64(unit), (n_keys,))
            self._unit = unit
            if unit > cap:
                slots = 0  # larger than memory: read-through, never cached
            elif unit == 0:
                slots = n_keys
            else:
                slots = min(cap // unit, n_keys)
        else:
            self._size = np.asarray(entry_bytes, dtype=np.int64)
            self._unit = None
            if self._size.shape != (n_keys,):
                raise ValueError(f"need {n_keys} entry sizes, got {self._size.shape}")
            if n_keys and self._size.min() < 0:
                raise ValueError("entry sizes must be >= 0")
            # The most entries that fit at once: the smallest ones.
            fitting = np.cumsum(np.sort(self._size[self._size <= cap]))
            slots = int(np.searchsorted(fitting, cap, side="right"))
        self._oversize = bool(n_keys) and int(self._size.max()) > cap
        self.slots = slots
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self._stamp = np.zeros(n_keys, dtype=np.int64)
        # Stamps 1..2*slots (0 is "not resident"): a compaction leaves at
        # most ``slots`` alive, so one batch window (<= slots) always fits.
        self._buf = np.zeros(2 * slots + 1, dtype=np.int64)
        self._sv = memoryview(self._stamp)
        self._bv = memoryview(self._buf)
        self._zv = memoryview(self._size)
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

    def access(self, key) -> bool:
        """Touch ``key``; returns True on hit.  Misses are admitted."""
        sv = self._sv
        hit = sv[key] >= self._front
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            size = self._zv[key]
            used = self.used_bytes + size
            if used > self.capacity_bytes:
                if size > self.capacity_bytes:
                    return False
                used = self._evict_until(used)
            self.used_bytes = used
            self._count += 1
        nxt = self._next
        if nxt == len(self._bv):
            self._compact()
            nxt = self._next
        self._bv[nxt] = key
        sv[key] = nxt
        self._next = nxt + 1
        return hit

    def _evict_until(self, used: int) -> int:
        """Evict LRU entries until ``used`` fits; returns what is left."""
        sv, bv, zv = self._sv, self._bv, self._zv
        cap = self.capacity_bytes
        front = self._front
        while used > cap:
            key = bv[front]
            if sv[key] == front:  # alive, not a dead hole
                used -= zv[key]
                self._count -= 1
            front += 1
        self._front = front
        return used

    def evict(self, key) -> bool:
        """Drop one entry (the DELETE path); False if it was not resident."""
        if self._sv[key] < self._front:
            return False
        self._sv[key] = 0
        self._count -= 1
        self.used_bytes -= self._zv[key]
        return True

    def clear(self) -> None:
        self._front = self._next
        self._count = 0
        self.used_bytes = 0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # batch path (maintenance scan, warm-up)
    # ------------------------------------------------------------------
    def access_many(self, keys) -> int:
        """Touch ``keys`` in order; returns the number of hits.

        Exactly equivalent to calling :meth:`access` per key.  The batch
        is applied in windows of at most ``slots`` keys, each cut where
        its bytes overflow the capacity, at its first repeated key and at
        its first would-be hit that an earlier miss of the window would
        evict (see :meth:`_apply`).
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

        With distinct keys whose bytes fit the capacity, every touched
        key ends at the MRU end in batch order and the evictions take
        the fewest oldest entries whose bytes make room for the misses
        -- unless one of those entries is a key of the batch (a
        would-be hit), which sequential access would evict before
        touching it.  Cutting the batch just before the first such key
        leaves a prefix whose eviction zone is a sub-zone of the whole
        batch's and so holds none of its hits.  The first key of any
        batch is safe, so every call makes progress.
        """
        cap = self.capacity_bytes
        unit = self._unit
        if unit is None:
            # Per-key sizes: cut before the first key larger than the
            # capacity and where the batch's bytes outgrow it.  (With one
            # size, a window of at most ``slots`` keys always fits.)
            sizes = self._size[part]
            if self._oversize:
                big = sizes > cap
                if big.any():
                    m = int(big.argmax())
                    if not m:  # a lone miss that is never admitted
                        self.misses += 1
                        return 1
                    part, sizes = part[:m], sizes[:m]
            total = np.cumsum(sizes)
            if total[-1] > cap:
                m = int(np.searchsorted(total, cap, side="right"))
                part, sizes, total = part[:m], sizes[:m], total[:m]
        if self._next + part.size > self._buf.size:
            self._compact()
        stamp = self._stamp
        front = self._front
        m = part.size
        old = stamp[part]
        hit = old >= front
        nh = int(np.count_nonzero(hit))
        alive = None
        while True:
            if unit is None:
                added = int(total[m - 1]) - (int(sizes[:m][hit].sum()) if nh else 0)
            else:
                added = (m - nh) * unit
            need = self.used_bytes + added - cap
            if need <= 0:
                n_evict = 0
                break
            if alive is None:
                alive, freed = self._eviction_zone(need, m - nh)
            if unit is None:
                n_evict = int(freed.searchsorted(need)) + 1
            else:
                n_evict = -(-need // unit)
            if not nh:
                break
            endangered = hit & (old[:m] <= front + alive[n_evict - 1])
            if not np.count_nonzero(endangered):
                break
            m = max(int(endangered.argmax()), 1)
            part, hit = part[:m], hit[:m]
            nh = int(np.count_nonzero(hit))
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
            added -= n_evict * unit if unit is not None else int(freed[n_evict - 1])
        self._buf[nxt : nxt + m] = part
        self._next = nxt + m
        self._count += m - nh - n_evict
        self.used_bytes += added
        self.hits += nh
        self.misses += m - nh
        return m

    def _eviction_zone(self, need: int, guess: int):
        """Offsets from ``_front`` of the oldest resident entries, far
        enough that their bytes reach ``need`` (``need <= used_bytes``),
        and those entries' cumulative bytes (``None`` with one size for
        every key); ``guess`` is the expected count."""
        lo = self._front
        hi = self._next
        unit = self._unit
        if unit is not None:
            guess = -(-need // unit)
        width = guess + (guess >> 1) + 8
        while True:
            end = min(lo + width, hi)
            keys = self._buf[lo:end]
            alive = (self._stamp[keys] == self._ar[lo:end]).nonzero()[0]
            if unit is None:
                freed = np.cumsum(self._size[keys[alive]])
                enough = freed.size and freed[-1] >= need
            else:
                freed = None
                enough = alive.size >= guess
            if enough or end == hi:
                return alive, freed
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

        LRU evicts strictly oldest-first, so the survivors of any replay
        are a suffix of the distinct keys in last-access order: walking
        back from the latest, they are the keys up to the first that no
        longer fits (keys larger than the capacity are skipped, as LRU
        never admits them).  Counters are not updated (the warm-up path
        resets them immediately afterwards).
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
        order = seen[np.argsort(last[seen])][::-1]
        order = order[self._size[order] <= self.capacity_bytes]
        kept = np.cumsum(self._size[order])
        n = int(np.searchsorted(kept, self.capacity_bytes, side="right"))
        self._load(order[:n][::-1])
        self._count = n
        self.used_bytes = int(kept[n - 1]) if n else 0

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
        used = int(self._size[keys].sum())
        if used > self.capacity_bytes or keys.size > self.slots:
            raise ValueError(
                f"snapshot holds {keys.size} entries of {used} bytes, "
                f"capacity is {self.capacity_bytes} bytes"
            )
        self._load(keys)
        self._count = keys.size
        self.used_bytes = used
        self.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StampLru(used={self.used_bytes}/{self.capacity_bytes} bytes, "
            f"entries={self._count}, hits={self.hits}, misses={self.misses})"
        )
