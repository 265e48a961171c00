"""End-to-end identity pins for the index, metadata and data caches.

Two short scanned episodes -- a shrunk S1 point (warm-up, snapshot,
restore, open-loop window) and a 2-cluster fleet with 5% writes on a
cache small enough to evict (its scan batches also split at would-be
hits in the eviction zone) -- must reproduce, bit for bit, the recorder
state and every server's resident key order recorded with the
ordered-dict LRUs these caches replaced.  The data-cache orders were
recorded as ``(object, chunk)`` pairs and are pinned as the chunk ids
``chunk_base[object] + chunk``.  A change to cache semantics shows up
here even where the goldens are too coarse to see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

from repro.experiments import fleet as fleet_mod
from repro.experiments import scenario_s1
from repro.experiments.fleet import FleetScenario, run_fleet
from repro.simulator import Cluster, ClusterConfig
from repro.workload import OpenLoopDriver, WikipediaTraceGenerator


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def resident_orders(cluster: Cluster) -> str:
    """Digest of every server's index and metadata keys, LRU first."""
    orders = []
    for idx, meta, _ in cluster.caches:
        orders.append([idx.state().tolist(), meta.state().tolist()])
    return digest(orders)


def data_orders(cluster: Cluster) -> str:
    """Digest of every server's page-cache chunk ids, LRU first."""
    return digest([data.state().tolist() for _, _, data in cluster.caches])


def test_s1_episode_identity():
    scenario = dataclasses.replace(
        scenario_s1(), n_objects=10_000, warm_accesses=25_000
    )
    # A fast scan wraps the namespace and fills the caches: evictions
    # and stamp-buffer compactions both happen inside the window.
    scenario = dataclasses.replace(
        scenario,
        cluster=dataclasses.replace(scenario.cluster, scanner_rate=3_000.0),
    )
    catalog = scenario.catalog()
    warm = Cluster(scenario.cluster, catalog.sizes, seed=3)
    gen = WikipediaTraceGenerator(catalog, rng=np.random.default_rng(4))
    warm.warm_caches(gen.warmup_accesses(scenario.warm_accesses))
    cluster = Cluster(scenario.cluster, catalog.sizes, seed=5)
    cluster.restore_cache_state(warm.cache_state())
    OpenLoopDriver(cluster).run(gen.constant_rate(150.0, 8.0))
    cluster.drain()
    assert resident_orders(warm) == "502040f449febfa4"
    assert resident_orders(cluster) == "682c4b9c491baf53"
    assert data_orders(warm) == "a482b3927d6d6aca"
    assert data_orders(cluster) == "268b656ae9f77a72"
    assert digest(cluster.metrics.state()) == "3c0b03b2f5b46519"


def test_fleet_episode_identity(monkeypatch):
    built = []

    class Recording(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(fleet_mod, "Cluster", Recording)
    result = run_fleet(
        FleetScenario(
            n_clusters=2,
            cluster=ClusterConfig(cache_bytes_per_server=16 << 20),
            rate=500.0,
            duration=8.0,
            warm_accesses=10_000,
            write_fraction=0.05,
        ),
        seed=7,
    )
    assert [resident_orders(c) for c in built] == [
        "917fde5109172755",
        "19f8a091b43fc8b4",
    ]
    assert [data_orders(c) for c in built] == [
        "858620ed9a68bb73",
        "70fd5e0778d1b092",
    ]
    assert digest(result.state) == "b7c9fbb4a373fc54"
