"""Backend tier: storage devices, event-driven processes, connection pool.

This is the structural heart of the testbed substitute.  Per device
(Section II / III-B semantics):

* ``N_be`` identical event-driven **processes** each own a FCFS operation
  queue.  Queue entries are ``accept()`` operations, request starts
  (parse + index lookup + metadata read + first chunk read, executed
  synchronously -- disk operations *block the process*), and chunk
  continuations.  After starting the asynchronous send of a chunk the
  process yields: the next chunk read is appended to the *tail* of its
  queue, which is exactly the interleaving Fig 1 depicts and the union
  operation abstracts.
* One FCFS **disk** shared by the device's processes; because processes
  block on their disk operations, at most ``N_be`` operations are ever
  at the disk (the structure the paper models as M/M/1/K).
* One **connection pool** per device.  A connecting request waits in the
  pool until a process performs an accept() operation; accepts are
  scheduled like any other operation (tail of a process queue) and drain
  the *whole* pool when they run -- the batch-accept behaviour the paper
  identifies as the source of S16 load imbalance.  The accept target is
  an idle process when one exists (epoll wakes a blocked worker
  immediately) and round-robin among busy ones otherwise (the accept
  then waits its turn in that process's queue, the regime where
  ``W_a ~ W_be``).

Caching mirrors a Linux backend: the index (inode/dentry slab), metadata
(xattr) and data (page cache) entries live in *separate* LRU budgets per
server, so per-operation hit/miss outcomes are only popularity-coupled,
not identical -- the regime in which the model's independent
``m_index/m_meta/m_data`` treatment is a good approximation.  Index &
metadata footprints default to ~1 KB per object combined, the figure the
paper quotes for production deployments.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.distributions import Degenerate, Distribution
from repro.simulator.cache import StampLru
from repro.simulator.core import Simulator
from repro.simulator.disk import OP_DATA, OP_INDEX, OP_META, OP_WRITE, Disk
from repro.simulator.network import NetworkProfile
from repro.simulator.request import Request

__all__ = ["StorageDevice", "StorageProcess", "Connection", "DeviceCounters"]

#: Cache footprint of one index entry (inode/dentry) and one metadata
#: (xattr) blob; together ~1 KB per object, per Section II.
INDEX_ENTRY_BYTES = 256
META_ENTRY_BYTES = 768

_OP_ACCEPT = 0
_OP_START = 1
_OP_CHUNK = 2
_OP_WCHUNK = 3


class Connection:
    """A pending TCP connection in the device's pool."""

    __slots__ = ("request", "frontend")

    def __init__(self, request: Request, frontend) -> None:
        self.request = request
        self.frontend = frontend


class DeviceCounters:
    """Windowed online metrics of one device (Section IV-B inputs)."""

    __slots__ = (
        "requests",
        "chunk_reads",
        "write_requests",
        "chunk_writes",
        "index_hits",
        "index_misses",
        "meta_hits",
        "meta_misses",
        "data_hits",
        "data_misses",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.chunk_reads = 0
        self.write_requests = 0
        self.chunk_writes = 0
        self.index_hits = 0
        self.index_misses = 0
        self.meta_hits = 0
        self.meta_misses = 0
        self.data_hits = 0
        self.data_misses = 0

    def miss_ratio(self, kind: str) -> float:
        hits = getattr(self, f"{kind}_hits")
        misses = getattr(self, f"{kind}_misses")
        total = hits + misses
        return misses / total if total else 0.0


class StorageProcess:
    """One event-driven worker: a FCFS queue of heterogeneous operations.

    Queue entries are uniform ``(code, req, idx)`` triples dispatched
    through a per-instance handler tuple, and every continuation has the
    kernel's two-payload handler signature ``cont(req, idx)`` -- no
    per-operation closures, no if/elif chains on the hot path.
    """

    __slots__ = ("sim", "device", "pid", "queue", "busy", "_ops",
                 "_finish_accept_op", "_parse_op", "_running", "_advance")

    def __init__(self, sim: Simulator, device: "StorageDevice", pid: int) -> None:
        self.sim = sim
        self.device = device
        self.pid = pid
        self.queue: deque[tuple] = deque()
        self.busy = False
        # Indexed by the _OP_* codes.
        self._ops = (
            self._run_accept,
            self._run_start,
            self._run_chunk,
            self._run_write_chunk,
        )
        self._finish_accept_op = sim.register(self._finish_accept)
        self._parse_op = sim.register(self._after_parse)
        self._running = False
        self._advance = False

    # ------------------------------------------------------------------
    def enqueue(self, op: tuple) -> None:
        self.queue.append(op)
        if not self.busy:
            self._next()

    def _next(self) -> None:
        """Advance the worker's FCFS queue (trampolined).

        Every continuation calls ``_next()`` in tail position, and cache
        hits complete synchronously -- a naive recursive step would grow
        the stack by a handful of frames per cached chunk, which
        overflows on multi-hundred-chunk objects (the fat lognormal tail
        at fleet-scale request counts).  Nested calls therefore just set
        an advance flag for the outermost frame's drain loop: identical
        execution order, constant stack depth.
        """
        if self._running:
            self._advance = True
            return
        self._running = True
        q = self.queue
        ops = self._ops
        try:
            while True:
                if not q:
                    self.busy = False
                    break
                self.busy = True
                code, req, idx = q.popleft()
                ops[code](req, idx)
                if not self._advance:
                    # The op went asynchronous (disk I/O or a scheduled
                    # event): its continuation re-enters _next() later.
                    break
                self._advance = False
        finally:
            self._running = False
            self._advance = False

    # ------------------------------------------------------------------
    # accept()
    # ------------------------------------------------------------------
    def _run_accept(self, _req, _idx) -> None:
        self.sim.schedule_op(self.device.accept_overhead, self._finish_accept_op)

    def _finish_accept(self, _a=None, _b=None) -> None:
        """Batch-accept: drain the whole backlog into this process.

        The frontend sent each HTTP request as soon as its connect()
        completed (standard TCP: data flows before accept), so at accept
        time the request bytes already sit in the socket buffer and the
        handler starts without another round trip.  Connections parked
        in the SYN queue (listen backlog full) are promoted into the
        freed backlog and wait for a future accept.
        """
        dev = self.device
        now = self.sim.now
        tracer = dev.tracer
        while dev.pool:
            conn = dev.pool.popleft()
            conn.request.accepted_time = now
            if tracer is not None:
                tracer.accept_span(
                    conn.request.rid, dev.device_id, conn.request.connect_time, now
                )
            self._receive_request(conn.request)
        while dev.syn_queue and len(dev.pool) < dev.listen_backlog:
            dev.pool.append(dev.syn_queue.popleft())
        if dev.pool:
            dev.accept_pending = True
            dev._choose_acceptor().enqueue((_OP_ACCEPT, None, 0))
        else:
            dev.accept_pending = False
        self._next()

    def _receive_request(self, req: Request) -> None:
        req.backend_enqueue_time = self.sim.now
        self.enqueue((_OP_START, req, 0))

    # ------------------------------------------------------------------
    # request start: parse + index + meta + first chunk
    # ------------------------------------------------------------------
    def _run_start(self, req: Request, _idx) -> None:
        if req.cancelled:
            # A redundant-read cancel reached this replica before the
            # request was picked up: drop it without touching the disk.
            self.device.abort_probe(req, 0)
            self._next()
            return
        parse_time = self.device.sample_parse()
        if parse_time > 0.0:
            self.sim.schedule_op(parse_time, self._parse_op, req)
        else:
            self._after_parse(req)

    def _after_parse(self, req: Request, _b=None) -> None:
        if req.is_delete:
            self.device.delete_object(req, self._after_delete)
        elif req.is_write:
            self.device.write_chunk(req, 0, self._after_write_chunk)
        else:
            self.device.read_index(req, self._after_index)

    def _after_index(self, req: Request, _b=None) -> None:
        self.device.read_meta(req, self._after_meta)

    def _after_meta(self, req: Request, _b=None) -> None:
        self.device.read_chunk(req, 0, self._after_first_chunk)

    def _after_first_chunk(self, req: Request, _b=None) -> None:
        dev = self.device
        req.backend_start_time = self.sim.now
        dev.send_chunk(req, 0, is_first=True, is_last=req.n_chunks == 1)
        if req.n_chunks > 1:
            self.queue.append((_OP_CHUNK, req, 1))
        self._next()

    # ------------------------------------------------------------------
    # chunk continuation
    # ------------------------------------------------------------------
    def _run_chunk(self, req: Request, idx: int) -> None:
        if req.cancelled:
            # Cancel landed mid-transfer: the worker stops before the
            # next chunk read (a blocked disk op cannot be interrupted,
            # matching real event-driven backends).
            self.device.abort_probe(req, idx)
            self._next()
            return
        self.device.read_chunk(req, idx, self._after_chunk)

    def _after_chunk(self, req: Request, idx: int) -> None:
        dev = self.device
        is_last = idx + 1 >= req.n_chunks
        dev.send_chunk(req, idx, is_first=False, is_last=is_last)
        if not is_last:
            self.queue.append((_OP_CHUNK, req, idx + 1))
        self._next()

    # ------------------------------------------------------------------
    # write path (PUT): receive + durably write chunk by chunk, yielding
    # between chunks just like reads, then one metadata commit, then ack
    # ------------------------------------------------------------------
    def _run_write_chunk(self, req: Request, idx: int) -> None:
        self.device.write_chunk(req, idx, self._after_write_chunk)

    def _after_write_chunk(self, req: Request, idx: int) -> None:
        if idx + 1 < req.n_chunks:
            self.queue.append((_OP_WCHUNK, req, idx + 1))
            self._next()
        else:
            self.device.finalize_write(req, self._after_write_finalize)

    def _after_write_finalize(self, req: Request, _b=None) -> None:
        req.backend_start_time = self.sim.now
        self.device.send_write_ack(req)
        self._next()

    def _after_delete(self, req: Request, _b=None) -> None:
        req.backend_start_time = self.sim.now
        self.device.send_write_ack(req)
        self._next()


class StorageDevice:
    """One storage device: disk + cache view + ``N_be`` processes + pool."""

    __slots__ = (
        "sim",
        "device_id",
        "name",
        "disk",
        "index_cache",
        "meta_cache",
        "data_cache",
        "network",
        "processes",
        "pool",
        "syn_queue",
        "listen_backlog",
        "accept_pending",
        "accept_overhead",
        "chunk_bytes",
        "object_sizes",
        "_chunk_base",
        "counters",
        "parse_dist",
        "on_complete",
        "on_write_ack",
        "scan",
        "failed",
        "tracer",
        "_rng",
        "_rr",
        "connect_op",
        "_first_byte_op",
        "_completion_op",
        "_write_ack_op",
        "_parse_const",
    )

    def __init__(
        self,
        sim: Simulator,
        device_id: int,
        name: str,
        disk: Disk,
        caches: tuple[StampLru, StampLru, StampLru],
        network: NetworkProfile,
        n_processes: int,
        chunk_bytes: int,
        object_sizes: np.ndarray,
        chunk_base: np.ndarray,
        parse_dist: Distribution,
        rng: np.random.Generator,
        accept_overhead: float = 5e-5,
        listen_backlog: int = 1024,
    ) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process per device")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")
        self.sim = sim
        self.device_id = device_id
        self.name = name
        self.disk = disk
        self.index_cache, self.meta_cache, self.data_cache = caches
        self.network = network
        if listen_backlog < 1:
            raise ValueError("listen_backlog must be >= 1")
        self.processes = [StorageProcess(sim, self, i) for i in range(n_processes)]
        self.pool: deque[Connection] = deque()
        self.syn_queue: deque[Connection] = deque()
        self.listen_backlog = listen_backlog
        self.accept_pending = False
        self.accept_overhead = accept_overhead
        self.chunk_bytes = chunk_bytes
        self.object_sizes = object_sizes
        #: Object ``obj``'s first chunk id in the data cache
        #: (``cache.chunk_layout``; one array shared by the cluster).
        self._chunk_base = memoryview(chunk_base)
        self.counters = DeviceCounters()
        self.parse_dist = parse_dist
        self.on_complete = None  # wired by the cluster to the recorder
        self.on_write_ack = None  # wired by the cluster (quorum handling)
        #: Optional ``MaintenanceScanner.advance`` (set by the cluster).
        self.scan = None
        #: Fail-stop flag: a failed device is skipped by fault-aware
        #: frontend routing.  In-flight work still completes, and the
        #: caches survive to recovery (warm restart).
        self.failed = False
        #: Optional :class:`repro.obs.trace.Tracer` (wired by the
        #: cluster; ``None`` = tracing off, zero added work).
        self.tracer = None
        self._rng = rng
        self._rr = 0
        #: Typed-event opcodes for the per-request hot path (frontends
        #: schedule ``connect_op``; ``send_chunk`` schedules deliveries).
        self.connect_op = sim.register(self.connect)
        self._first_byte_op = sim.register(self.deliver_first_byte)
        self._completion_op = sim.register(self.deliver_completion)
        self._write_ack_op = sim.register(self._deliver_write_ack)
        # A Degenerate parse distribution never touches the RNG stream;
        # hoisting its constant keeps the sampled value bit-identical
        # while skipping a Generator-free-but-not-call-free sample().
        self._parse_const = (
            float(parse_dist.value) if isinstance(parse_dist, Degenerate) else None
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def connect(self, conn: Connection, _b=None) -> None:
        """A TCP SYN arrives: enter the listen backlog, or queue behind
        it when the backlog is full (connect() has not completed yet for
        such connections, so their frontends cannot send requests)."""
        if self.scan is not None:
            self.scan(self.sim.now)
        conn.request.connect_time = self.sim.now
        conn.request.device_id = self.device_id
        if conn.request.is_write:
            self.counters.write_requests += 1
        else:
            self.counters.requests += 1
        if len(self.pool) < self.listen_backlog:
            self.pool.append(conn)
            if not self.accept_pending:
                self.accept_pending = True
                self._choose_acceptor().enqueue((_OP_ACCEPT, None, 0))
        else:
            self.syn_queue.append(conn)

    def _choose_acceptor(self) -> StorageProcess:
        # An idle worker is woken immediately; otherwise the accept
        # operation waits in a busy worker's queue (round-robin).  The
        # rotation pointer advances on idle hits too: if it stayed put,
        # every busy-fallback streak would restart from the same pointer
        # and repeatedly favor the processes just after it, starving
        # high-index workers of accept work.
        for proc in self.processes:
            if not proc.busy:
                self._rr = proc.pid
                return proc
        self._rr = (self._rr + 1) % len(self.processes)
        return self.processes[self._rr]

    # ------------------------------------------------------------------
    # cached reads
    # ------------------------------------------------------------------
    def sample_parse(self) -> float:
        const = self._parse_const
        if const is not None:
            return const
        return float(self.parse_dist.sample(self._rng))

    def read_index(self, req: Request, cont) -> None:
        if self.index_cache.access(req.object_id):
            self.counters.index_hits += 1
            cont(req)
        else:
            self.counters.index_misses += 1
            self.disk.submit_op(OP_INDEX, INDEX_ENTRY_BYTES, cont, req, None, req.rid)

    def read_meta(self, req: Request, cont) -> None:
        if self.meta_cache.access(req.object_id):
            self.counters.meta_hits += 1
            cont(req)
        else:
            self.counters.meta_misses += 1
            self.disk.submit_op(OP_META, META_ENTRY_BYTES, cont, req, None, req.rid)

    def read_chunk(self, req: Request, idx: int, cont) -> None:
        self.counters.chunk_reads += 1
        # chunk_offset shifts fork-join fragment reads into the parent
        # object's chunk space (0 for whole-object requests), so cache
        # keys stay per-object-chunk across fragments.
        key = self._chunk_base[req.object_id] + req.chunk_offset + idx
        if self.data_cache.access(key):
            self.counters.data_hits += 1
            cont(req, idx)
        else:
            self.counters.data_misses += 1
            nbytes = self.chunk_size_of(req, idx)
            self.disk.submit_op(OP_DATA, nbytes, cont, req, idx, req.rid)

    # ------------------------------------------------------------------
    # durable writes (PUT path)
    # ------------------------------------------------------------------
    def write_chunk(self, req: Request, idx: int, cont) -> None:
        """Durably write one received chunk; the process blocks on the
        disk like it does for reads, and the written chunk lands in the
        page cache (write-through)."""
        self.counters.chunk_writes += 1
        self.data_cache.access(self._chunk_base[req.object_id] + idx)
        nbytes = self.chunk_size_of(req, idx)
        self.disk.submit_op(OP_WRITE, nbytes, cont, req, idx, req.rid)

    def finalize_write(self, req: Request, cont) -> None:
        """Commit the object's metadata (inode + xattrs) after the last
        chunk: one small durable write, then the index and metadata
        caches hold the fresh entries."""
        self.index_cache.access(req.object_id)
        self.meta_cache.access(req.object_id)
        self.disk.submit_op(
            OP_WRITE, INDEX_ENTRY_BYTES + META_ENTRY_BYTES, cont, req, None, req.rid
        )

    def delete_object(self, req: Request, cont) -> None:
        """Tombstone the object: one small durable write, and every
        cached entry of the object is invalidated (Swift unlinks the
        .data file and drops a .ts tombstone)."""
        obj = req.object_id
        self.index_cache.evict(obj)
        self.meta_cache.evict(obj)
        base = self._chunk_base
        for key in range(base[obj], base[obj + 1]):
            self.data_cache.evict(key)
        self.disk.submit_op(OP_WRITE, 512, cont, req, None, req.rid)

    def send_write_ack(self, req: Request) -> None:
        """Acknowledge this replica's durable write to the frontend."""
        self.sim.schedule_op(self.network.latency, self._write_ack_op, req)

    def _deliver_write_ack(self, req: Request, _b=None) -> None:
        if self.on_write_ack is not None:
            self.on_write_ack(req)

    def chunk_size_of(self, req: Request, idx: int) -> int:
        if idx + 1 < req.n_chunks:
            return self.chunk_bytes
        return req.size_bytes - (req.n_chunks - 1) * self.chunk_bytes

    # ------------------------------------------------------------------
    # deliveries back to the frontend
    # ------------------------------------------------------------------
    def send_chunk(self, req: Request, idx: int, *, is_first: bool, is_last: bool) -> None:
        """Write one chunk to the (serialised) response stream.

        Chunk ``idx`` starts serialising at ``max(now, stream_clock)`` so
        a later chunk can never overtake an earlier one on the wire; its
        last byte lands one link latency after its departure.
        """
        now = self.sim.now
        nbytes = self.chunk_size_of(req, idx)
        start = now if req.stream_clock < now else req.stream_clock
        depart = start + nbytes / self.network.bandwidth
        req.stream_clock = depart
        if self.tracer is not None:
            self.tracer.send_span(
                req.rid,
                self.device_id,
                idx,
                start,
                depart + self.network.latency,
                is_first,
                is_last,
            )
        if is_first:
            self.sim.schedule_op_at(
                start + self.network.latency, self._first_byte_op, req
            )
        if is_last:
            self.sim.schedule_op_at(
                depart + self.network.latency, self._completion_op, req
            )

    def deliver_first_byte(self, req: Request, _b=None) -> None:
        # A timed-out-and-retried request may receive bytes from two
        # replicas; the first arrival wins.
        if req.first_byte_time < 0.0:
            req.first_byte_time = self.sim.now
            if req.parent is not None:
                req.parent.red.owner.probe_first_byte(req)

    def deliver_completion(self, req: Request, _b=None) -> None:
        if req.is_complete:
            return  # duplicate delivery from a pre-retry replica
        req.completion_time = self.sim.now
        if req.parent is not None:
            # Redundant-read probe: aggregate at the owning frontend
            # instead of recording this per-replica leg as a request.
            req.parent.red.owner.probe_completed(req)
            return
        if self.on_complete is not None:
            self.on_complete(req)

    def abort_probe(self, req: Request, idx: int) -> None:
        """Terminal event of a cancelled redundant-read probe.

        ``idx`` is the number of chunks the replica served before the
        cancel took effect (wasted-work accounting); the probe's
        completion timestamp marks when it stopped occupying the worker.
        """
        req.completion_time = self.sim.now
        req.parent.red.owner.probe_aborted(req, idx)
