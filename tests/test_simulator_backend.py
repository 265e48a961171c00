"""Tests for the backend tier: processes, pools, accept, chunking."""

import numpy as np
import pytest

from repro.distributions import Degenerate
from repro.simulator import (
    Cluster,
    ClusterConfig,
    Connection,
    Disk,
    HddProfile,
    MetricsRecorder,
    NetworkProfile,
    Request,
    Simulator,
    StampLru,
    StorageDevice,
)
from repro.simulator.backend import INDEX_ENTRY_BYTES, META_ENTRY_BYTES
from repro.simulator.cache import chunk_layout


def make_device(
    n_processes=1,
    object_sizes=None,
    cache_bytes=(1 << 20, 1 << 20, 8 << 20),
    chunk_bytes=65536,
    listen_backlog=1024,
    recorder=None,
):
    sim = Simulator()
    rng = np.random.default_rng(3)
    recorder = recorder or MetricsRecorder()
    sizes = (
        np.asarray(object_sizes, dtype=np.int64)
        if object_sizes is not None
        else np.full(100, 10_000, dtype=np.int64)
    )
    chunk_base, chunk_sizes = chunk_layout(sizes, chunk_bytes)
    dev = StorageDevice(
        sim,
        device_id=0,
        name="dev0",
        disk=Disk(sim, HddProfile(), rng, recorder=recorder),
        caches=(
            StampLru(cache_bytes[0], INDEX_ENTRY_BYTES, sizes.size),
            StampLru(cache_bytes[1], META_ENTRY_BYTES, sizes.size),
            StampLru(cache_bytes[2], chunk_sizes, chunk_sizes.size),
        ),
        network=NetworkProfile(),
        n_processes=n_processes,
        chunk_bytes=chunk_bytes,
        object_sizes=sizes,
        chunk_base=chunk_base,
        parse_dist=Degenerate(0.0004),
        rng=np.random.default_rng(4),
        listen_backlog=listen_backlog,
    )
    dev.on_complete = recorder.record_request
    return sim, dev, recorder


def submit(sim, dev, object_id=0, chunk_bytes=65536, at=None):
    req = Request(0, object_id, int(dev.object_sizes[object_id]), chunk_bytes)
    req.arrival_time = sim.now if at is None else at
    conn = Connection(req, None)
    if at is None:
        dev.connect(conn)
    else:
        sim.schedule_at(at, dev.connect, conn)
    return req


class TestSingleRequestFlow:
    def test_all_timestamps_populated(self):
        sim, dev, rec = make_device()
        req = submit(sim, dev)
        sim.run_until_idle()
        assert req.connect_time >= 0.0
        assert req.accepted_time >= req.connect_time
        assert req.backend_enqueue_time >= req.accepted_time
        assert req.backend_start_time > req.backend_enqueue_time
        assert req.first_byte_time > req.backend_start_time
        assert req.completion_time >= req.first_byte_time
        assert rec.n_requests == 1

    def test_multi_chunk_request(self):
        sizes = [200_000]  # 4 chunks of 64 KiB
        sim, dev, rec = make_device(object_sizes=sizes)
        req = submit(sim, dev)
        sim.run_until_idle()
        assert req.n_chunks == 4
        assert dev.counters.chunk_reads == 4
        assert req.completion_time > req.first_byte_time

    def test_last_chunk_partial_size(self):
        sizes = [65536 + 1000]
        sim, dev, _ = make_device(object_sizes=sizes)
        req = submit(sim, dev)
        assert dev.chunk_size_of(req, 0) == 65536
        assert dev.chunk_size_of(req, 1) == 1000

    def test_cache_hits_skip_disk(self):
        sim, dev, rec = make_device()
        submit(sim, dev, object_id=5)
        sim.run_until_idle()
        first_ops = dev.disk.ops_served
        assert first_ops == 3  # index + meta + data all missed
        submit(sim, dev, object_id=5)
        sim.run_until_idle()
        assert dev.disk.ops_served == first_ops  # all hits now

    def test_counters_track_misses(self):
        sim, dev, _ = make_device()
        submit(sim, dev, object_id=1)
        sim.run_until_idle()
        c = dev.counters
        assert c.index_misses == 1 and c.meta_misses == 1 and c.data_misses == 1
        assert c.miss_ratio("index") == 1.0
        submit(sim, dev, object_id=1)
        sim.run_until_idle()
        assert c.miss_ratio("index") == 0.5


class TestAcceptSemantics:
    def test_batch_accept_drains_pool(self):
        """Connections arriving while the process is busy share one
        accept and are all drained together (Fig 4)."""
        sim, dev, _ = make_device()
        reqs = [submit(sim, dev, object_id=i, at=0.001 * i) for i in range(4)]
        sim.run_until_idle()
        # First conn accepted alone; while its request processes (disk
        # ops ~ tens of ms), the rest accumulate and are batch-accepted.
        accept_times = sorted({r.accepted_time for r in reqs[1:]})
        assert len(accept_times) <= 2
        assert all(r.is_complete for r in reqs)

    def test_accept_wait_grows_with_queue(self):
        sim, dev, _ = make_device()
        first = submit(sim, dev, object_id=0, at=0.0)
        late = submit(sim, dev, object_id=1, at=0.002)
        sim.run_until_idle()
        assert first.accept_wait < late.accept_wait

    def test_idle_process_accepts_quickly(self):
        sim, dev, _ = make_device()
        req = submit(sim, dev)
        sim.run_until_idle()
        assert req.accept_wait == pytest.approx(dev.accept_overhead, abs=1e-9)

    def test_syn_queue_overflow(self):
        """With a tiny listen backlog, extra connections wait in the SYN
        queue and still complete eventually."""
        sim, dev, rec = make_device(listen_backlog=1)
        reqs = [submit(sim, dev, object_id=i, at=1e-5 * i) for i in range(6)]
        sim.run_until_idle()
        assert all(r.is_complete for r in reqs)
        assert rec.n_requests == 6

    def test_requests_counted_once(self):
        sim, dev, _ = make_device(listen_backlog=2)
        for i in range(5):
            submit(sim, dev, object_id=i, at=1e-5 * i)
        sim.run_until_idle()
        assert dev.counters.requests == 5


class TestMultiProcess:
    def test_processes_share_disk(self):
        sim, dev, _ = make_device(n_processes=4)
        reqs = [submit(sim, dev, object_id=i, at=1e-4 * i) for i in range(8)]
        sim.run_until_idle()
        assert all(r.is_complete for r in reqs)
        # With all-miss traffic every request does 3 disk ops.
        assert dev.disk.ops_served == 24

    def test_disk_queue_bounded_by_processes(self):
        """Processes block on disk, so disk backlog <= N_be always --
        the structural fact behind the paper's M/M/1/K (K = N_be)."""
        sim, dev, _ = make_device(n_processes=4)
        peak = 0

        def sample():
            nonlocal peak
            outstanding = dev.disk.queue_length + (1 if dev.disk.busy else 0)
            peak = max(peak, outstanding)
            if sim.pending_events:
                sim.schedule(1e-4, sample)

        for i in range(30):
            submit(sim, dev, object_id=i, at=1e-4 * i)
        sim.schedule(0.0, sample)
        sim.run_until_idle()
        assert 1 <= peak <= 4

    def test_parallelism_shrinks_accept_waits(self):
        """With 16 workers an idle one accepts immediately, so accept
        waits collapse compared with a single busy worker."""

        def mean_accept_wait(n_proc):
            sim, dev, rec = make_device(n_processes=n_proc)
            for i in range(20):
                submit(sim, dev, object_id=i, at=1e-5 * i)
            sim.run_until_idle()
            return rec.requests().accept_wait.mean()

        assert mean_accept_wait(16) < 0.2 * mean_accept_wait(1)


class TestFirstByteOrdering:
    def test_first_byte_never_after_completion(self):
        sizes = np.array([100, 65536, 200_000, 1_000_000])
        sim, dev, rec = make_device(object_sizes=sizes)
        for i in range(4):
            submit(sim, dev, object_id=i, at=1e-4 * i)
        sim.run_until_idle()
        tab = rec.requests()
        assert np.all(tab.full_latency >= tab.response_latency - 1e-12)
        assert np.all(tab.response_latency > 0.0)


def single_device_cluster(sizes, cache_bytes=16 << 20):
    """One device holding every replica, no maintenance scan: a warmed
    object stays on the device a read reaches."""
    config = ClusterConfig(
        n_devices=1,
        replicas=1,
        cache_bytes_per_server=cache_bytes,
        scanner_rate=0.0,
    )
    return Cluster(config, np.asarray(sizes, dtype=np.int64), seed=1)


class TestWarm:
    def test_warm_populates_all_caches(self):
        cl = single_device_cluster(np.full(100, 10_000))
        cl.warm_caches(np.arange(10))
        cl.dispatch(3)
        cl.drain()
        assert cl.total_disk_ops == 0  # fully cached


class TestDeepChunkChain:
    def test_fully_cached_huge_object_does_not_overflow_stack(self):
        """A warm read of a multi-hundred-chunk object completes its
        whole cache-hit continuation chain synchronously; the worker's
        trampolined queue must keep stack depth constant (a recursive
        step overflowed at ~200 chunks under CPython's default limit)."""
        n_chunks = 1_200
        cl = single_device_cluster([n_chunks * 65536], cache_bytes=128 << 20)
        cl.warm_caches(np.zeros(1, dtype=np.int64))
        assert cl.total_disk_ops == 0
        cl.dispatch(0)
        cl.drain()
        tab = cl.metrics.requests()
        assert len(tab) == 1
        assert int(tab.n_chunks[0]) == n_chunks
        assert cl.total_disk_ops == 0  # never left the page cache
