"""Cluster assembly: the full simulated testbed.

Mirrors the paper's experimental setup (Section V-A): a frontend pool of
identical proxy processes, backend servers each hosting one (or more)
HDD-backed storage devices with ``N_be`` worker processes and a shared
byte-budget cache, a 1 Gbps network, and a hash ring of 1,024 partitions
with 3 replicas.  Scaled down by default so that full rate sweeps run in
CI; every knob is in :class:`ClusterConfig`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.distributions import Degenerate, Distribution
from repro.simulator.backend import (
    INDEX_ENTRY_BYTES,
    META_ENTRY_BYTES,
    StorageDevice,
)
from repro.simulator.cache import StampLru, chunk_ids, chunk_layout
from repro.simulator.core import Simulator
from repro.simulator.disk import Disk, HddProfile
from repro.simulator.frontend import FrontendProcess
from repro.simulator.metrics import MetricsRecorder
from repro.simulator.network import NetworkProfile
from repro.simulator.request import Request
from repro.simulator.ring import HashRing
from repro.simulator.rng import BufferedIntegers, RngStreams

__all__ = ["ClusterConfig", "Cluster"]


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Defaults mirror the paper's 7-node testbed shape: 3 frontend servers
    x 4 proxy workers, 4 backend servers x 1 device.
    """

    n_frontend_processes: int = 12
    n_devices: int = 4
    processes_per_device: int = 1
    devices_per_server: int = 1
    chunk_bytes: int = 65536
    cache_bytes_per_server: int = 192 << 20
    #: Fraction of the server's memory given to the index (inode/dentry),
    #: metadata (xattr) and data (page cache) LRU budgets respectively.
    cache_split: tuple[float, float, float] = (0.06, 0.14, 0.80)
    hdd: HddProfile = dataclasses.field(default_factory=HddProfile)
    #: Optional per-device hardware overrides for mixed fleets or
    #: degraded spindles: ``(device_index, profile)`` pairs; unlisted
    #: devices use ``hdd``.
    hdd_overrides: tuple[tuple[int, HddProfile], ...] = ()
    network: NetworkProfile = dataclasses.field(default_factory=NetworkProfile)
    parse_fe: Distribution = dataclasses.field(
        default_factory=lambda: Degenerate(0.0008)
    )
    parse_be: Distribution = dataclasses.field(
        default_factory=lambda: Degenerate(0.0004)
    )
    accept_overhead: float = 5e-5
    #: TCP listen backlog per device: connections beyond it wait in the
    #: SYN queue and cannot carry request bytes until promoted.
    listen_backlog: int = 1024
    n_partitions: int = 1024
    replicas: int = 3
    #: Background maintenance scan rate (objects/second per server).
    #: Swift deployments continuously run auditors and replicators that
    #: stat/list every object; those uniform scans keep re-filling the
    #: inode (index) and xattr (metadata) caches with cold entries,
    #: decoupling index/meta hits from data-popularity.  0 disables.
    scanner_rate: float = 600.0
    #: Auditor data-read speed relative to ``scanner_rate`` (the data
    #: pass is bytes-limited, so it walks objects more slowly).
    scanner_data_fraction: float = 0.5
    #: Frontend read timeout (seconds); ``None`` disables (the paper's
    #: "normal status").  Timed-out reads retry on a different replica
    #: up to ``max_retries`` times.
    request_timeout: float | None = None
    max_retries: int = 1
    #: Read-dispatch strategy (see ``frontend.READ_STRATEGIES`` and
    #: docs/REDUNDANCY.md): ``single`` | ``kofn`` | ``quorum`` |
    #: ``forkjoin``.  ``read_fanout`` is ``k`` for kofn/forkjoin;
    #: quorum always uses the full replica row.
    read_strategy: str = "single"
    read_fanout: int = 1
    #: Frontend dispatch policy (see ``repro.simulator.dispatch`` and
    #: docs/DISPATCH.md): ``random`` | ``round_robin`` | ``power_of_d``
    #: | ``join_idle_queue`` | ``key_affinity``.  ``random`` is the
    #: original uniform replica choice and stays bit-identical to it.
    #: ``dispatch_d`` is the candidate count for ``power_of_d`` and the
    #: per-device credit bound for ``join_idle_queue``.
    dispatch_policy: str = "random"
    dispatch_d: int = 2

    def __post_init__(self) -> None:
        if self.n_frontend_processes < 1 or self.n_devices < 1:
            raise ValueError("need at least one frontend process and one device")
        if self.processes_per_device < 1:
            raise ValueError("processes_per_device must be >= 1")
        if self.devices_per_server < 1 or self.n_devices % self.devices_per_server:
            raise ValueError("devices_per_server must divide n_devices")
        if self.replicas > self.n_devices:
            raise ValueError("cannot place more replicas than devices")
        for idx, _profile in self.hdd_overrides:
            if not 0 <= idx < self.n_devices:
                raise ValueError(f"hdd_overrides device index {idx} out of range")
        split = self.cache_split
        if len(split) != 3 or any(f < 0.0 for f in split) or sum(split) > 1.0 + 1e-9:
            raise ValueError("cache_split must be three fractions summing to <= 1")
        # The chained comparisons are False for NaN and both infinities.
        if not 0.0 <= self.scanner_rate < math.inf:
            raise ValueError(
                f"scanner_rate must be finite and >= 0, got {self.scanner_rate}"
            )
        if not 0.0 <= self.scanner_data_fraction < math.inf:
            raise ValueError(
                "scanner_data_fraction must be finite and >= 0, "
                f"got {self.scanner_data_fraction}"
            )
        from repro.simulator.frontend import READ_STRATEGIES

        if self.read_strategy not in READ_STRATEGIES:
            raise ValueError(
                f"read_strategy must be one of {READ_STRATEGIES}, "
                f"got {self.read_strategy!r}"
            )
        if self.read_strategy in ("single", "quorum"):
            if self.read_fanout != 1:
                raise ValueError(
                    f"read_fanout is meaningless for {self.read_strategy!r} "
                    "(single reads one replica; quorum always uses the row)"
                )
        elif not 1 <= self.read_fanout <= self.replicas:
            raise ValueError(
                f"read_fanout must be in [1, replicas={self.replicas}], "
                f"got {self.read_fanout}"
            )
        if self.read_strategy != "single" and self.request_timeout is not None:
            raise ValueError(
                "redundant read dispatch replaces timeout/retry hedging; "
                "set request_timeout=None"
            )
        from repro.simulator.dispatch import DISPATCH_POLICIES, _WIDTH_POLICIES

        if self.dispatch_policy not in DISPATCH_POLICIES:
            raise ValueError(
                f"dispatch_policy must be one of {DISPATCH_POLICIES}, "
                f"got {self.dispatch_policy!r}"
            )
        if self.dispatch_policy in _WIDTH_POLICIES:
            if self.dispatch_d < 1:
                raise ValueError(
                    f"dispatch_d must be >= 1, got {self.dispatch_d}"
                )
        elif self.dispatch_d != 2:
            raise ValueError(
                f"dispatch_d is meaningless for {self.dispatch_policy!r} "
                f"(only {_WIDTH_POLICIES} use it)"
            )
        if self.dispatch_policy != "random" and self.request_timeout is not None:
            raise ValueError(
                "dispatch policies replace timeout/retry hedging (a retry "
                "would double-count in-flight credits); set "
                "request_timeout=None"
            )

    @property
    def n_backend_servers(self) -> int:
        return self.n_devices // self.devices_per_server

    def hdd_for(self, device_index: int) -> HddProfile:
        for idx, profile in self.hdd_overrides:
            if idx == device_index:
                return profile
        return self.hdd


class Cluster:
    """The assembled simulated system."""

    def __init__(
        self,
        config: ClusterConfig,
        object_sizes: np.ndarray,
        seed: int | np.random.SeedSequence = 0,
        *,
        record_disk_samples: bool = False,
        ring: HashRing | None = None,
        tracer=None,
        latency_store: str = "exact",
    ) -> None:
        self.config = config
        self.object_sizes = np.asarray(object_sizes, dtype=np.int64)
        # Indexing a memoryview yields a Python int (what ``Request``
        # stores) without holding one int object per catalog entry.
        self._sizes = memoryview(self.object_sizes)
        if self.object_sizes.size == 0 or np.any(self.object_sizes <= 0):
            raise ValueError("object sizes must be positive")
        self.sim = Simulator()
        self.rng = RngStreams(seed)
        #: Optional :class:`repro.obs.trace.Tracer`.  ``None`` (default)
        #: keeps every hook site on its zero-work branch; a tracer never
        #: touches a random stream, so traced runs stay bit-identical.
        self.tracer = tracer
        self.metrics = MetricsRecorder(
            record_disk_samples=record_disk_samples, latency_store=latency_store
        )
        if ring is not None:
            # An injected ring (the parallel sweep ships one placement to
            # every worker) must match this cluster's geometry.
            if (
                ring.n_partitions != config.n_partitions
                or ring.replicas != config.replicas
                or ring.n_devices > config.n_devices
            ):
                raise ValueError("injected ring does not match cluster config")
            self.ring = ring
        else:
            self.ring = HashRing(
                config.n_partitions,
                config.n_devices,
                config.replicas,
                self.rng.stream("ring"),
            )

        # Backend: three cache budgets per server (index slab, xattr,
        # page cache), one disk + N_be processes per device.  Index and
        # xattr entries have one size each and are keyed by object id;
        # page-cache entries are keyed by chunk id, over one chunk layout
        # shared by every server.
        n_objects = self.object_sizes.size
        self.chunk_base, chunk_sizes = chunk_layout(
            self.object_sizes, config.chunk_bytes
        )
        budgets = [int(f * config.cache_bytes_per_server) for f in config.cache_split]
        self.caches: list[tuple[StampLru, StampLru, StampLru]] = [
            (
                StampLru(budgets[0], INDEX_ENTRY_BYTES, n_objects),
                StampLru(budgets[1], META_ENTRY_BYTES, n_objects),
                StampLru(budgets[2], chunk_sizes, chunk_sizes.size),
            )
            for _ in range(config.n_backend_servers)
        ]
        from repro.simulator.scanner import MaintenanceScanner

        self.scanners: list[MaintenanceScanner | None] = []
        for s in range(config.n_backend_servers):
            if config.scanner_rate > 0.0:
                idx_cache, meta_cache, data_cache = self.caches[s]
                self.scanners.append(
                    MaintenanceScanner(
                        idx_cache,
                        meta_cache,
                        data_cache,
                        self.chunk_base,
                        config.scanner_rate,
                        data_rate_fraction=config.scanner_data_fraction,
                        phase=(s * n_objects) // max(config.n_backend_servers, 1),
                    )
                )
            else:
                self.scanners.append(None)

        self.devices: list[StorageDevice] = []
        for d in range(config.n_devices):
            server = d // config.devices_per_server
            disk = Disk(
                self.sim,
                config.hdd_for(d),
                self.rng.stream(f"disk{d}"),
                # No recorder at all when sampling is off: the disk's
                # per-op hook then stays on its None zero-work branch
                # instead of calling into a recorder that drops the
                # sample anyway.
                recorder=self.metrics if record_disk_samples else None,
            )
            dev = StorageDevice(
                self.sim,
                device_id=d,
                name=f"dev{d}",
                disk=disk,
                caches=self.caches[server],
                network=config.network,
                n_processes=config.processes_per_device,
                chunk_bytes=config.chunk_bytes,
                object_sizes=self.object_sizes,
                chunk_base=self.chunk_base,
                parse_dist=config.parse_be,
                rng=self.rng.stream(f"parse-be{d}"),
                accept_overhead=config.accept_overhead,
                listen_backlog=config.listen_backlog,
            )
            if tracer is None:
                dev.on_complete = self.metrics.record_request
            else:
                dev.on_complete = self._traced_complete
                dev.tracer = tracer
                disk.tracer = tracer
                disk.trace_dev = d
            dev.on_write_ack = self._handle_write_ack
            scanner = self.scanners[server]
            if scanner is not None:
                dev.scan = scanner.advance
                self.sim.profile_span(dev, "scan")
            self.devices.append(dev)

        # Dispatch policy (docs/DISPATCH.md).  ``random`` maps to None:
        # the frontends then run their original RNG paths untouched,
        # which is what keeps the default bit-identical to seed
        # behaviour.  Non-random policies draw from their own named
        # stream, so adding one never perturbs the fe/warmup/ring
        # streams either.
        from repro.simulator.dispatch import make_policy

        if config.dispatch_policy == "random":
            self.dispatcher = None
        else:
            self.dispatcher = make_policy(
                config.dispatch_policy,
                self.devices,
                self.rng.stream("dispatch"),
                d=config.dispatch_d,
            )
            # Single-path reads release their in-flight credit at the
            # completion sink (probes release per-probe in the frontend).
            for dev in self.devices:
                dev.on_complete = self._dispatch_complete
        self.metrics.note_dispatch_policy(config.dispatch_policy)

        self.frontends = [
            FrontendProcess(
                self.sim,
                fid=f,
                parse_dist=config.parse_fe,
                ring=self.ring,
                devices=self.devices,
                network=config.network,
                rng=self.rng.stream(f"fe{f}"),
                timeout=config.request_timeout,
                max_retries=config.max_retries,
                read_strategy=config.read_strategy,
                read_fanout=config.read_fanout,
                chunk_bytes=config.chunk_bytes,
                dispatch=self.dispatcher,
            )
            for f in range(config.n_frontend_processes)
        ]
        for fe in self.frontends:
            # Redundantly-dispatched reads complete at the frontend, not
            # at a device: route them into the same recording sinks.
            fe.on_read_complete = (
                self.metrics.record_request if tracer is None else self._traced_complete
            )
            fe.on_redundant_done = self.metrics.record_redundant
            fe.on_dispatch = self.metrics.record_dispatch
        if tracer is not None:
            for fe in self.frontends:
                fe.tracer = tracer
        self._lb = BufferedIntegers(
            self.rng.stream("load-balancer"), len(self.frontends)
        )
        self._next_rid = 0
        self.fault_schedule = None
        # Typed arrival events: payload is (object_id, is_write-or-None).
        self._arrival_op = self.sim.register(self._arrival)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_faults(self, schedule) -> None:
        """Install a :class:`~repro.simulator.faults.FaultSchedule`.

        Must be called before the run reaches the first fault time; the
        events then fire from the kernel at their absolute times.  An
        empty schedule is a no-op and leaves the run bit-identical to an
        uninjected one; a schedule containing a fail-stop switches the
        frontends' routing filter on from this point (which is stream-
        neutral until a device actually fails).
        """
        if self.fault_schedule is not None:
            raise ValueError("a fault schedule is already installed")
        schedule.validate_against(
            self.config.n_devices, self.config.n_backend_servers
        )
        self.fault_schedule = schedule
        if schedule.needs_routing_filter:
            for fe in self.frontends:
                fe.fault_filter = True
        schedule.install(self)

    def set_device_failed(self, device_index: int, failed: bool) -> None:
        """Fault hook: flip one device's fail-stop flag."""
        self.devices[device_index].failed = failed

    def flush_server_caches(self, server: int, kinds: tuple[str, ...]) -> None:
        """Fault hook: drop the selected LRU contents of one server."""
        from repro.simulator.faults import CACHE_KINDS

        for kind, cache in zip(CACHE_KINDS, self.caches[server]):
            if kind in kinds:
                cache.clear()

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def dispatch(
        self, object_id: int, is_write: bool = False, is_delete: bool = False
    ) -> Request:
        """Inject one request now, via a uniformly random frontend
        process (ssbench's built-in load balancing)."""
        object_id = int(object_id)
        req = Request(
            self._next_rid,
            object_id,
            self._sizes[object_id],
            self.config.chunk_bytes,
            is_write=is_write,
            is_delete=is_delete,
        )
        self._next_rid += 1
        fe = self.frontends[self._lb.next()]
        fe.submit(req)
        return req

    def _arrival(self, object_id, is_write) -> None:
        """Typed-event handler for pre-scheduled open-loop arrivals."""
        self.dispatch(object_id, is_write is True)

    def _traced_complete(self, req: Request) -> None:
        """``on_complete`` shim when tracing is on: emit the request span
        before the metrics row so the trace orders summaries last."""
        self.tracer.request_span(req)
        self.metrics.record_request(req)

    def _dispatch_complete(self, req: Request) -> None:
        """``on_complete`` shim when a dispatch policy is active: return
        the request's in-flight credit before recording."""
        self.dispatcher.on_release(req.device_id)
        if self.tracer is not None:
            self.tracer.request_span(req)
        self.metrics.record_request(req)

    def _handle_write_ack(self, req: Request) -> None:
        """Quorum tracking for replicated writes: respond to the client
        (and record the request) when the majority has acked."""
        req.write_acks += 1
        if req.write_acks == req.write_quorum:
            req.first_byte_time = self.sim.now
            req.completion_time = self.sim.now
            if self.tracer is not None:
                self.tracer.request_span(req)
            self.metrics.record_request(req)

    def schedule_arrivals(
        self,
        times: np.ndarray,
        object_ids: np.ndarray,
        writes: np.ndarray | None = None,
    ) -> None:
        """Pre-schedule an open-loop arrival sequence.

        Arrival traces are non-decreasing in time, which lets the kernel
        keep them as a consumable event lane
        (:meth:`~repro.simulator.core.Simulator.schedule_runs`): the
        arrays are handed over as-is -- no per-event tuple construction
        or ``.tolist()`` on the hot path -- and draining an arrival is a
        cursor increment rather than a heap sift.  Unsorted inputs fall
        back to per-event pushes.
        """
        times = np.asarray(times, dtype=float)
        object_ids = np.asarray(object_ids)
        if times.shape != object_ids.shape:
            raise ValueError("times and object_ids must have matching shapes")
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != times.shape:
                raise ValueError("writes must match times in shape")
        sorted_times = (
            times.size > 0
            and times[0] >= self.sim.now
            and bool(np.all(times[1:] >= times[:-1]))
        )
        op = self._arrival_op
        if sorted_times:
            self.sim.schedule_runs(times, op, object_ids, b_seq=writes)
        elif writes is None:
            for t, obj in zip(times.tolist(), object_ids.tolist()):
                self.sim.schedule_op_at(t, op, obj)
        else:
            for t, obj, w in zip(
                times.tolist(), object_ids.tolist(), writes.tolist()
            ):
                self.sim.schedule_op_at(t, op, obj, w)

    def run_until(self, t_end: float) -> None:
        self.sim.run_until(t_end)

    def drain(self, *, max_events: int | None = 50_000_000) -> int:
        """Finish all in-flight work (end of an experiment)."""
        return self.sim.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # warmup & windows
    # ------------------------------------------------------------------
    def warm_caches(self, object_ids: np.ndarray) -> None:
        """Replay an access stream against the caches without simulating
        time (substitutes for the paper's 3-hour warmup phase).  Each
        access warms one randomly chosen replica, like real GETs would,
        and touches the object's index and metadata entries and then
        every chunk of it.

        Replica choices are drawn in one vectorised call (bit-identical
        to a scalar loop).  Caches are shared per *server*, so the
        stream is grouped per server in access order, which keeps each
        cache's access subsequence exact.  Fresh (empty) caches install
        the replay's final state directly; already-populated caches
        replay it as one batch.
        """
        object_ids = np.asarray(object_ids, dtype=np.int64)
        if object_ids.size == 0:
            return
        rng = self.rng.stream("warmup")
        dev_ids = self.ring.pick_many(object_ids, rng)
        servers = dev_ids // self.config.devices_per_server
        for server, (idx_cache, meta_cache, data_cache) in enumerate(self.caches):
            objs = object_ids[servers == server]
            for cache, keys in (
                (idx_cache, objs),
                (meta_cache, objs),
                (data_cache, chunk_ids(self.chunk_base, objs)),
            ):
                if len(cache) == 0:
                    cache.install_tail(keys)
                else:
                    cache.access_many(keys)
        for server_caches in self.caches:
            for cache in server_caches:
                cache.reset_counters()

    def cache_state(self) -> tuple:
        """Picklable snapshot of every server's cache contents.

        Together with :meth:`HashRing.from_assignment` this lets the
        parallel sweep warm the caches once in the parent and restore
        the warm state in each worker instead of replaying the (much
        slower) warmup access stream per rate point.
        """
        return tuple(
            tuple(cache.state() for cache in server_caches)
            for server_caches in self.caches
        )

    def restore_cache_state(self, state: tuple) -> None:
        """Install a snapshot taken by :meth:`cache_state`."""
        if len(state) != len(self.caches):
            raise ValueError("cache snapshot does not match cluster shape")
        for server_caches, server_state in zip(self.caches, state):
            for cache, cache_state in zip(server_caches, server_state):
                cache.restore(cache_state)

    def reset_window_counters(self) -> None:
        for dev in self.devices:
            dev.counters.reset()
        for server_caches in self.caches:
            for cache in server_caches:
                cache.reset_counters()

    # ------------------------------------------------------------------
    @property
    def total_disk_ops(self) -> int:
        return sum(dev.disk.ops_served for dev in self.devices)

    def state_summary(self) -> dict:
        """Instantaneous queue/state snapshot for debugging and tests.

        Everything a live dashboard would show: per-device operation
        backlogs, pool/SYN depths, disk queues, cache fills, frontend
        queue lengths and the event horizon."""
        return {
            "now": self.sim.now,
            "pending_events": self.sim.pending_events,
            "frontend_queue_lengths": [fe.queue_length for fe in self.frontends],
            "devices": [
                {
                    "name": dev.name,
                    "process_queue_lengths": [
                        len(p.queue) + (1 if p.busy else 0) for p in dev.processes
                    ],
                    "pool_depth": len(dev.pool),
                    "syn_queue_depth": len(dev.syn_queue),
                    "disk_backlog": dev.disk.queue_length
                    + (1 if dev.disk.busy else 0),
                    "cache_fill": {
                        "index": dev.index_cache.used_bytes,
                        "meta": dev.meta_cache.used_bytes,
                        "data": dev.data_cache.used_bytes,
                    },
                }
                for dev in self.devices
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"Cluster(fe={c.n_frontend_processes}, devices={c.n_devices}, "
            f"Nbe={c.processes_per_device}, objects={self.object_sizes.size})"
        )
