"""StampLru against a sequential OrderedDict LRU.

The array-backed index/metadata cache must leave hits, misses, used
bytes and LRU order exactly as scalar accesses to a plain byte-budget
LRU would, whatever mix of scalar touches, batches (distinct, repeated,
with would-be hits in the eviction zone), DELETE evictions, cache
flushes, snapshot/restore and warm-up installs reaches it.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.cache import StampLru


class RefLru:
    """Byte-budget LRU over uniform ``size`` entries, one touch at a time."""

    def __init__(self, cap: int, size: int) -> None:
        self.cap, self.size = cap, size
        self.od: OrderedDict[int, None] = OrderedDict()
        self.hits = self.misses = 0

    def access(self, key: int) -> bool:
        if key in self.od:
            self.od.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if self.size <= self.cap:
            while (len(self.od) + 1) * self.size > self.cap:
                self.od.popitem(last=False)
            self.od[key] = None
        return False

    def evict(self, key: int) -> bool:
        return self.od.pop(key, False) is None

    @property
    def used_bytes(self) -> int:
        return len(self.od) * self.size


def assert_same(lru: StampLru, ref: RefLru) -> None:
    assert lru.state().tolist() == list(ref.od)
    assert (lru.hits, lru.misses) == (ref.hits, ref.misses)
    assert lru.used_bytes == ref.used_bytes
    assert len(lru) == len(ref.od)


def zone_batch(ref: RefLru, fresh: list[int], k: int) -> list[int]:
    """Misses first, then the ``k`` oldest resident keys: sequential
    access evicts some of those before touching them."""
    return fresh + list(ref.od)[:k]


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


@settings(max_examples=300, deadline=None)
@given(cap=st.integers(0, 200), size=st.sampled_from([0, 8, 16, 25, 64, 300]), ops=OPS)
def test_matches_ordered_dict_replay(cap, size, ops):
    n_keys = 24
    lru = StampLru(cap, size, n_keys)
    ref = RefLru(cap, size)
    for op in ops:
        kind = op[0]
        if kind == "access":
            for key in op[1]:
                assert lru.access(key, size) == ref.access(key)
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
            ref.od.clear()
        elif kind == "snapshot":
            snap = lru.state()
            lru = StampLru(cap, size, n_keys)
            lru.access(0, size)  # restore replaces whatever is resident
            lru.restore(snap)
            ref.hits = ref.misses = 0
        else:  # warm-up install: the final state of replaying the stream
            lru.clear()
            lru.install_tail(np.asarray(op[1], dtype=np.int64))
            replay = RefLru(cap, size)
            for k in op[1]:
                replay.access(k)
            ref.od = replay.od
        assert_same(lru, ref)


def test_compaction_keeps_order():
    # 3 slots in a 6-stamp buffer: hundreds of touches compact often.
    lru, ref = StampLru(3 * 256, 256, 10), RefLru(3 * 256, 256)
    rng = np.random.default_rng(3)
    for step in range(400):
        if step % 3:
            k = int(rng.integers(10))
            assert lru.access(k, 256) == ref.access(k)
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
        lru.access(key, 1)
        ref.access(key)
    batch = list(range(20, 26)) + list(range(k))
    assert lru.access_many(batch) == sum(ref.access(x) for x in batch)
    assert_same(lru, ref)


def test_zero_capacity_never_admits():
    lru = StampLru(0, 256, 5)
    assert lru.slots == 0
    assert not lru.access(1, 256)
    assert lru.access_many([1, 1, 2]) == 0
    assert (len(lru), lru.hits, lru.misses) == (0, 0, 4)


def test_restore_rejects_oversized_snapshot():
    with pytest.raises(ValueError):
        StampLru(512, 256, 10).restore(np.arange(3))
