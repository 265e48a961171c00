"""StampLru against a sequential OrderedDict LRU.

The array-backed cache (index, metadata and data caches alike) must
leave hits, misses, used bytes and LRU order exactly as scalar accesses
to a plain byte-budget LRU would, whatever mix of scalar touches,
batches (distinct, repeated, overflowing the capacity in bytes, with
would-be hits in the eviction zone), keys larger than the capacity,
DELETE evictions, cache flushes, snapshot/restore and warm-up installs
reaches it -- for one entry size and for per-key sizes.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cache import StampLru, chunk_ids, chunk_layout


class RefLru:
    """Byte-budget LRU over keys of fixed sizes, one touch at a time.

    ``size`` is one size for every key or a sequence of per-key sizes;
    keys larger than the capacity are never admitted.
    """

    def __init__(self, cap: int, size) -> None:
        self.cap = cap
        self.size = size
        self.od: OrderedDict[int, None] = OrderedDict()
        self.used_bytes = 0
        self.hits = self.misses = 0

    def size_of(self, key: int) -> int:
        return int(self.size[key] if np.ndim(self.size) else self.size)

    def access(self, key: int) -> bool:
        if key in self.od:
            self.od.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        size = self.size_of(key)
        if size <= self.cap:
            while self.used_bytes + size > self.cap:
                old, _ = self.od.popitem(last=False)
                self.used_bytes -= self.size_of(old)
            self.od[key] = None
            self.used_bytes += size
        return False

    def evict(self, key: int) -> bool:
        if key not in self.od:
            return False
        del self.od[key]
        self.used_bytes -= self.size_of(key)
        return True

    def clear(self) -> None:
        self.od.clear()
        self.used_bytes = 0


def assert_same(lru: StampLru, ref: RefLru) -> None:
    assert lru.state().tolist() == list(ref.od)
    assert (lru.hits, lru.misses) == (ref.hits, ref.misses)
    assert lru.used_bytes == ref.used_bytes
    assert len(lru) == len(ref.od)


def zone_batch(ref: RefLru, fresh: list[int], k: int) -> list[int]:
    """Misses first, then the ``k`` oldest resident keys: sequential
    access evicts some of those before touching them."""
    return fresh + list(ref.od)[:k]


N_KEYS = 24

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.lists(st.integers(0, 23), max_size=40)),
        st.tuples(st.just("batch"), st.lists(st.integers(0, 23), max_size=40)),
        st.tuples(
            st.just("distinct"),
            st.lists(st.integers(0, 23), unique=True, max_size=24),
        ),
        st.tuples(
            st.just("zone"),
            st.lists(st.integers(0, 23), unique=True, max_size=12),
            st.integers(1, 6),
        ),
        st.tuples(st.just("evict"), st.integers(0, 23)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("install"), st.lists(st.integers(0, 23), max_size=60)),
    ),
    max_size=60,
)

#: One size for every key, or per-key sizes (0, small, near and above
#: the capacity), as the data cache's chunks have.
SIZES = st.one_of(
    st.sampled_from([0, 8, 16, 25, 64, 300]),
    st.lists(
        st.sampled_from([0, 1, 7, 16, 25, 40, 64, 120, 300]),
        min_size=N_KEYS,
        max_size=N_KEYS,
    ),
)


def replay(lru: StampLru, ref: RefLru, ops, cap, size) -> StampLru:
    """Apply ``ops`` to both caches, asserting equality after each."""
    for op in ops:
        kind = op[0]
        if kind == "access":
            for key in op[1]:
                assert lru.access(key) == ref.access(key)
        elif kind in ("batch", "distinct", "zone"):
            keys = op[1]
            if kind == "zone":
                keys = zone_batch(ref, [k for k in keys if k not in ref.od], op[2])
            expected = sum(ref.access(k) for k in keys)
            assert lru.access_many(np.asarray(keys, dtype=np.int64)) == expected
        elif kind == "evict":
            assert lru.evict(op[1]) == ref.evict(op[1])
        elif kind == "clear":
            lru.clear()
            ref.clear()
        elif kind == "snapshot":
            snap = lru.state()
            lru = StampLru(cap, size, N_KEYS)
            lru.access(0)  # restore replaces whatever is resident
            lru.restore(snap)
            ref.hits = ref.misses = 0
        else:  # warm-up install: the final state of replaying the stream
            lru.clear()
            lru.install_tail(np.asarray(op[1], dtype=np.int64))
            fresh = RefLru(cap, size)
            for k in op[1]:
                fresh.access(k)
            ref.od, ref.used_bytes = fresh.od, fresh.used_bytes
        assert_same(lru, ref)
    return lru


@settings(max_examples=400, deadline=None)
@given(cap=st.integers(0, 200), size=SIZES, ops=OPS)
def test_matches_ordered_dict_replay(cap, size, ops):
    replay(StampLru(cap, size, N_KEYS), RefLru(cap, size), ops, cap, size)


def test_compaction_keeps_order():
    # 3 slots in a 6-stamp buffer: hundreds of touches compact often.
    lru, ref = StampLru(3 * 256, 256, 10), RefLru(3 * 256, 256)
    rng = np.random.default_rng(3)
    for step in range(400):
        if step % 3:
            k = int(rng.integers(10))
            assert lru.access(k) == ref.access(k)
        else:
            keys = rng.integers(10, size=int(rng.integers(1, 9))).tolist()
            assert lru.access_many(keys) == sum(ref.access(k) for k in keys)
        assert_same(lru, ref)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_would_be_hit_in_eviction_zone(k):
    # 8 slots, full; a batch of fresh keys then the k oldest resident
    # keys: the misses evict those keys before their touch comes.
    lru, ref = StampLru(8, 1, 32), RefLru(8, 1)
    for key in range(8):
        lru.access(key)
        ref.access(key)
    batch = list(range(20, 26)) + list(range(k))
    assert lru.access_many(batch) == sum(ref.access(x) for x in batch)
    assert_same(lru, ref)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_would_be_hit_in_byte_eviction_zone(k):
    # Eight 1-byte keys fill the cache; one 5-byte miss evicts five of
    # them at once, so the oldest k are gone before their touch comes.
    sizes = [1] * 8 + [5] * 4
    lru, ref = StampLru(8, sizes, 12), RefLru(8, sizes)
    for key in range(8):
        lru.access(key)
        ref.access(key)
    batch = [8] + list(range(k))
    assert lru.access_many(batch) == sum(ref.access(x) for x in batch)
    assert_same(lru, ref)


def test_zero_capacity_never_admits():
    lru = StampLru(0, 256, 5)
    assert lru.slots == 0
    assert not lru.access(1)
    assert lru.access_many([1, 1, 2]) == 0
    assert (len(lru), lru.hits, lru.misses) == (0, 0, 4)


def test_restore_rejects_oversized_snapshot():
    with pytest.raises(ValueError):
        StampLru(512, 256, 10).restore(np.arange(3))
    # Two entries, but more bytes than the capacity holds.
    with pytest.raises(ValueError):
        StampLru(512, [100, 300, 300], 3).restore(np.array([1, 2]))


def test_chunk_layout_and_ids():
    base, sizes = chunk_layout(np.array([10, 64, 65, 200]), 64)
    assert base.tolist() == [0, 1, 2, 4, 8]
    assert sizes.tolist() == [10, 64, 64, 1, 64, 64, 64, 8]
    assert chunk_ids(base, np.array([2, 0, 3])).tolist() == [2, 3, 0, 4, 5, 6, 7]
    assert chunk_ids(base, np.array([1, 0, 1])).tolist() == [1, 0, 1]
