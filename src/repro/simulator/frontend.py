"""Frontend tier: event-driven proxy processes (Section III-C).

Each frontend process is a FCFS queue of request-parsing operations
(M/G/1 in the model).  After parsing, the process routes the request via
the hash ring and opens TCP connections toward the chosen device(s) --
the connect lands in the device's pool one network latency later, where
the accept()-wait of the paper begins.

Reads (GET) go to one random replica, as Swift's proxy does.  Writes
(PUT) fan out to *all* replicas and complete at a majority quorum,
Swift's write semantics; the paper's model covers reads only (its
"read-heavy workloads" assumption), so the write path exists to measure
what that assumption costs (see the write-fraction tests).

When ``timeout`` is configured, a read that has produced no first byte
within the deadline is retried on a *different* replica (Swift's
node-error-limiting behaviour); the abandoned replica keeps working on
the stale request -- wasted service, exactly as in production.  The
paper's "normal status" assumption excludes this regime; the simulator
includes it so the boundary of the model's validity is testable.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.distributions import Degenerate, Distribution
from repro.simulator.backend import Connection, StorageDevice
from repro.simulator.rng import BufferedIntegers
from repro.simulator.core import SimulationError, Simulator
from repro.simulator.network import NetworkProfile
from repro.simulator.request import RedundantRead, Request
from repro.simulator.ring import HashRing

__all__ = ["FrontendProcess", "READ_STRATEGIES"]

#: Read-dispatch strategies (docs/REDUNDANCY.md):
#:
#: * ``single``   -- one random replica (Swift proxy; today's behaviour);
#: * ``kofn``     -- speculative reads to ``k`` distinct replicas,
#:   first first-byte wins, the losers are cancelled;
#: * ``quorum``   -- read from *all* replicas, respond at the majority
#:   (read-repair-free quorum GET), cancel the stragglers;
#: * ``forkjoin`` -- stripe the object across ``k`` replicas at chunk
#:   granularity and join all fragments before responding.
READ_STRATEGIES = ("single", "kofn", "quorum", "forkjoin")


class FrontendProcess:
    """One event-driven proxy worker."""

    __slots__ = (
        "sim",
        "fid",
        "parse_dist",
        "ring",
        "devices",
        "network",
        "queue",
        "busy",
        "timeout",
        "max_retries",
        "timeouts_fired",
        "fault_filter",
        "tracer",
        "read_strategy",
        "read_fanout",
        "chunk_bytes",
        "on_read_complete",
        "on_redundant_done",
        "dispatch",
        "on_dispatch",
        "_redundant",
        "_cancel_op",
        "_rng",
        "_parse_op",
        "_parse_const",
        "_pick",
    )

    def __init__(
        self,
        sim: Simulator,
        fid: int,
        parse_dist: Distribution,
        ring: HashRing,
        devices: list[StorageDevice],
        network: NetworkProfile,
        rng: np.random.Generator,
        *,
        timeout: float | None = None,
        max_retries: int = 1,
        read_strategy: str = "single",
        read_fanout: int = 1,
        chunk_bytes: int = 1,
        dispatch=None,
    ) -> None:
        if timeout is not None and timeout <= 0.0:
            raise ValueError("timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if read_strategy not in READ_STRATEGIES:
            raise ValueError(f"unknown read strategy {read_strategy!r}")
        if read_fanout < 1:
            raise ValueError("read_fanout must be >= 1")
        # kofn / forkjoin with fanout 1 degenerate to the single-replica
        # path *exactly* (no probe objects, no extra events): this is
        # the k=1 bit-identity reduction the goldens pin down.
        redundant = read_strategy == "quorum" or (
            read_strategy in ("kofn", "forkjoin") and read_fanout > 1
        )
        if redundant and timeout is not None:
            raise ValueError(
                "redundant read dispatch replaces timeout/retry hedging; "
                "configure one or the other"
            )
        if dispatch is not None and timeout is not None:
            raise ValueError(
                "dispatch policies replace timeout/retry hedging; "
                "configure one or the other"
            )
        self.sim = sim
        self.fid = fid
        self.parse_dist = parse_dist
        self.ring = ring
        self.devices = devices
        self.network = network
        self.queue: deque[Request] = deque()
        self.busy = False
        self.timeout = timeout
        self.max_retries = max_retries
        self.timeouts_fired = 0
        # Switched on by Cluster.inject_faults when a schedule contains
        # a fail-stop; off, routing never inspects device liveness (and
        # consumes exactly the same RNG stream as before faults existed).
        self.fault_filter = False
        #: Optional :class:`repro.obs.trace.Tracer` (wired by the
        #: cluster; ``None`` = tracing off).
        self.tracer = None
        self.read_strategy = read_strategy
        self.read_fanout = read_fanout
        self.chunk_bytes = chunk_bytes
        #: Completion sink for reads the *frontend* finishes (redundant
        #: dispatch); wired by the cluster like ``device.on_complete``.
        self.on_read_complete = None
        #: Per-strategy accounting sink, fired once all probes of a
        #: redundant read are terminal (wired to the metrics recorder).
        self.on_redundant_done = None
        #: Dispatch policy shared across the cluster's frontends
        #: (``None`` = uniform-random replica choice, the original code
        #: path below, untouched for bit-identity).
        self.dispatch = dispatch
        #: Per-dispatch accounting sink (wired by the cluster to
        #: ``MetricsRecorder.record_dispatch``); fires once per read
        #: target -- one per single read, one per probe.
        self.on_dispatch = None
        self._redundant = redundant
        self._rng = rng
        self._cancel_op = sim.register(self._deliver_cancel)
        self._parse_op = sim.register(self._after_parse)
        # Degenerate parse never touches the stream: hoist the constant.
        self._parse_const = (
            float(parse_dist.value) if isinstance(parse_dist, Degenerate) else None
        )
        # Block-buffered replica picks (see _decide_pick): None until the
        # first read decides, then a BufferedIntegers or False (scalar).
        self._pick = None

    # ------------------------------------------------------------------
    def submit(self, req: Request) -> None:
        """A request arrives from the load balancer."""
        req.arrival_time = self.sim.now
        req.frontend_id = self.fid
        if self.tracer is not None:
            self.tracer.admit_span(req.rid, self.fid, self.sim.now)
        self.queue.append(req)
        if not self.busy:
            self._next()

    def _next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        req = self.queue.popleft()
        req.parse_start_time = self.sim.now
        parse_time = self._parse_const
        if parse_time is None:
            parse_time = float(self.parse_dist.sample(self._rng))
        self.sim.schedule_op(parse_time, self._parse_op, req)

    def _after_parse(self, req: Request, _b=None) -> None:
        if self.tracer is not None:
            self.tracer.frontend_span(
                req.rid, self.fid, req.arrival_time, self.sim.now
            )
        if req.is_write:
            self._send_write(req)
        elif self._redundant:
            self._send_read_redundant(req)
        else:
            self._send_read(req, exclude=-1)
        self._next()

    # ------------------------------------------------------------------
    # reads: one replica, optional timeout + retry on another
    # ------------------------------------------------------------------
    def _decide_pick(self):
        """Decide (once, at the first read) whether replica picks may be
        block-buffered.

        Buffering draws ``integers(replicas)`` in blocks ahead of time,
        which is bit-identical to per-read scalar draws only while this
        frontend's stream has a single consumer with a constant bound:
        the parse distribution must be Degenerate (samples nothing), no
        retries may re-draw with a reduced candidate list (``timeout is
        None``), and fault-aware routing must be off (a fail-stop filter
        can shrink the bound).  If the routing filter switches on later
        (faults are injected mid-run, after warmup), ``_send_read``
        resyncs the stream and falls back to scalar draws from the exact
        position the per-call path would have reached.
        """
        if (
            self.timeout is None
            and not self.fault_filter
            and self._parse_const is not None
        ):
            pick = BufferedIntegers(self._rng, self.ring.replicas)
        else:
            pick = False
        self._pick = pick
        return pick

    def _send_read(self, req: Request, exclude: int) -> None:
        if self.dispatch is not None:
            self._send_read_policy(req, exclude)
            return
        row = self.ring.replica_row(req.object_id)
        pick = self._pick
        if pick is None:
            pick = self._decide_pick()
        if pick is not False:
            if not self.fault_filter:
                idx = row[pick.next()]
                sink = self.on_dispatch
                if sink is not None:
                    sink(idx)
                device = self.devices[idx]
                self.sim.schedule_op(
                    self.network.latency, device.connect_op, Connection(req, self)
                )
                return
            # Routing filter switched on mid-run: hand the stream back
            # to the scalar path, bit-identically (see resync()).
            pick.resync()
            self._pick = False
        if self.fault_filter:
            # Ring handoff: skip fail-stopped replicas.  With no device
            # down the filtered list has identical contents, so the same
            # stream draw picks the same replica.  If every replica is
            # down the read falls through to the full row (it will be
            # served whenever that device recovers).
            devices = self.devices
            row = [d for d in row if not devices[d].failed] or row
        candidates = row if exclude < 0 else [d for d in row if d != exclude]
        if not candidates:
            candidates = row  # the only alive replica just timed out
        idx = candidates[self._rng.integers(len(candidates))]
        sink = self.on_dispatch
        if sink is not None:
            sink(idx)
        device = self.devices[idx]
        self.sim.schedule_op(
            self.network.latency, device.connect_op, Connection(req, self)
        )
        if self.timeout is not None:
            self.sim.schedule(
                self.timeout, self._check_timeout, req, req.retries, device.device_id
            )

    def _send_read_policy(self, req: Request, exclude: int) -> None:
        """Single-replica dispatch routed through the policy.

        Mirrors the scalar branch of :meth:`_send_read` -- same row
        filtering for fail-stops and timed-out replicas -- but the
        choice comes from ``self.dispatch`` instead of the frontend's
        RNG stream.  Timeout scheduling is absent by construction:
        policies reject ``timeout`` at configuration time (a retry would
        acquire a second in-flight credit for the same request).
        """
        row = self.ring.replica_row(req.object_id)
        if self.fault_filter:
            devices = self.devices
            row = [d for d in row if not devices[d].failed] or row
        if exclude >= 0:
            row = [d for d in row if d != exclude] or row
        policy = self.dispatch
        idx = policy.select(row, req.object_id, 1)[0]
        policy.on_dispatch(idx)
        sink = self.on_dispatch
        if sink is not None:
            sink(idx)
        device = self.devices[idx]
        self.sim.schedule_op(
            self.network.latency, device.connect_op, Connection(req, self)
        )

    def _check_timeout(self, req: Request, attempt: int, device_id: int) -> None:
        if req.first_byte_time >= 0.0:
            return  # answered in time
        if attempt != req.retries or req.retries >= self.max_retries:
            return  # a newer attempt is in flight, or retries exhausted
        req.retries += 1
        req.timed_out = True
        self.timeouts_fired += 1
        if self.tracer is not None:
            self.tracer.timeout_event(req.rid, device_id, attempt, self.sim.now)
        self._send_read(req, exclude=device_id)

    # ------------------------------------------------------------------
    # redundant reads: probe fan-out, first-k aggregation, cancellation
    # ------------------------------------------------------------------
    def _send_read_redundant(self, req: Request) -> None:
        """Fan a read out as per-replica *probe* requests.

        Each probe is its own :class:`Request` (own timestamps, own
        response-stream clock) pointing back at the parent; the parent
        carries the :class:`RedundantRead` aggregator and never touches
        a device itself.  Fail-stopped replicas shrink the candidate
        set exactly like the single-replica path (full-row fallback when
        everything is down).
        """
        row = self.ring.replica_row(req.object_id)
        if self.fault_filter:
            devices = self.devices
            row = [d for d in row if not devices[d].failed] or row
        strategy = self.read_strategy
        policy = self.dispatch
        if strategy == "quorum":
            # All replicas, respond at the majority of the *dispatched*
            # set -- a dead replica shrinks the quorum like writes do.
            # A policy only orders the row (every replica is probed
            # anyway), but the ordering still matters for JBSQ credits
            # and the dispatch-count ledger.
            if policy is None:
                targets = list(row)
            else:
                targets = policy.select(row, req.object_id, len(row))
            need = len(targets) // 2 + 1
            red = RedundantRead("quorum", self, len(targets), need, need)
            self._spawn_probes(req, red, targets)
        elif strategy == "kofn":
            k = min(self.read_fanout, len(row))
            if policy is None:
                targets = self._pick_distinct(row, k)
            else:
                targets = policy.select(row, req.object_id, k)
            red = RedundantRead("kofn", self, k, 1, 1)
            self._spawn_probes(req, red, targets)
        else:  # forkjoin
            k = min(self.read_fanout, len(row), req.n_chunks)
            if policy is None:
                targets = self._pick_distinct(row, k)
            else:
                targets = policy.select(row, req.object_id, k)
            red = RedundantRead("forkjoin", self, k, k, k)
            self._spawn_fragments(req, red, targets)

    def _pick_distinct(self, row, k: int):
        """``k`` distinct replicas by partial Fisher-Yates.

        For ``k = 1`` this is exactly one ``integers(len(row))`` draw --
        the same stream consumption as the single-replica scalar path.
        """
        pool = list(row)
        n = len(pool)
        if k > n:
            raise SimulationError(
                f"redundant read needs {k} distinct replicas but only "
                f"{n} are live; fanout cannot exceed the surviving row"
            )
        rng = self._rng
        out = []
        for i in range(k):
            j = i + int(rng.integers(n - i))
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out

    def _make_probe(self, req: Request, size_bytes: int) -> Request:
        probe = Request(req.rid, req.object_id, size_bytes, self.chunk_bytes)
        probe.parent = req
        probe.arrival_time = req.arrival_time
        probe.frontend_id = self.fid
        req.red.probes.append(probe)
        return probe

    def _spawn_probes(self, req: Request, red: RedundantRead, targets) -> None:
        req.red = red
        latency = self.network.latency
        policy = self.dispatch
        sink = self.on_dispatch
        for dev_idx in targets:
            if policy is not None:
                policy.on_dispatch(dev_idx)
            if sink is not None:
                sink(dev_idx)
            probe = self._make_probe(req, req.size_bytes)
            device = self.devices[dev_idx]
            self.sim.schedule_op(latency, device.connect_op, Connection(probe, self))

    def _spawn_fragments(self, req: Request, red: RedundantRead, targets) -> None:
        """Stripe the object across ``k`` replicas at chunk granularity.

        Fragment ``i`` reads a contiguous chunk range (range read); the
        first ``n_chunks % k`` fragments take one extra chunk, and the
        final fragment ends with the object's short tail chunk.  The
        probes' ``chunk_offset`` keeps backend cache keys in the parent
        object's chunk space.
        """
        req.red = red
        n_chunks = req.n_chunks
        chunk_bytes = self.chunk_bytes
        tail = req.size_bytes - (n_chunks - 1) * chunk_bytes
        base, rem = divmod(n_chunks, red.fanout)
        latency = self.network.latency
        policy = self.dispatch
        sink = self.on_dispatch
        offset = 0
        for i, dev_idx in enumerate(targets):
            if policy is not None:
                policy.on_dispatch(dev_idx)
            if sink is not None:
                sink(dev_idx)
            count = base + 1 if i < rem else base
            if offset + count == n_chunks:
                nbytes = (count - 1) * chunk_bytes + tail
            else:
                nbytes = count * chunk_bytes
            probe = self._make_probe(req, nbytes)
            probe.chunk_offset = offset
            offset += count
            device = self.devices[dev_idx]
            self.sim.schedule_op(latency, device.connect_op, Connection(probe, self))

    # -- probe event aggregation (called by the backend deliveries) ----
    def probe_first_byte(self, probe: Request) -> None:
        parent = probe.parent
        red = parent.red
        red.fb_count += 1
        if red.fb_count != red.fb_need:
            return
        # The deciding probe: kofn's first responder, quorum's
        # majority-th first byte, forkjoin's slowest fragment.  The
        # parent's stage attribution follows it.
        now = self.sim.now
        red.winner_probe = probe
        red.winner_device = probe.device_id
        red.decided_time = now
        parent.device_id = probe.device_id
        parent.connect_time = probe.connect_time
        parent.accepted_time = probe.accepted_time
        parent.backend_enqueue_time = probe.backend_enqueue_time
        parent.backend_start_time = probe.backend_start_time
        parent.first_byte_time = now
        if red.strategy == "kofn":
            # First response wins: the client streams from the winner,
            # everything else is cancelled.
            self._cancel_losers(red)

    def probe_completed(self, probe: Request) -> None:
        red = probe.parent.red
        red.done_count += 1
        red.total_chunks += probe.n_chunks
        if red.strategy == "kofn":
            # The parent streams from the winner; a losing replica that
            # finished before its cancel landed does not complete it.
            if probe is red.winner_probe:
                self._finish_parent(probe.parent)
        elif red.done_count == red.done_need:
            self._finish_parent(probe.parent)
            if red.strategy == "quorum":
                self._cancel_losers(red)
        self._probe_terminal(red, probe)

    def probe_aborted(self, probe: Request, served_chunks: int) -> None:
        red = probe.parent.red
        red.aborted += 1
        red.total_chunks += served_chunks
        self._probe_terminal(red, probe)

    def _probe_terminal(self, red: RedundantRead, probe: Request) -> None:
        if self.dispatch is not None:
            # Probes release their in-flight credit individually; the
            # single-replica path releases via the cluster's completion
            # sink instead (the parent of a redundant read never holds
            # a credit itself).
            self.dispatch.on_release(probe.device_id)
        red.pending -= 1
        if red.cancel_time >= 0.0 and probe is not red.winner_probe:
            # Cancellation latency: how long this replica kept working
            # after the cancel went out (whether it aborted or managed
            # to finish anyway).
            red.cancel_count += 1
            red.cancel_latency_sum += self.sim.now - red.cancel_time
        if red.pending == 0 and self.on_redundant_done is not None:
            self.on_redundant_done(probe.parent)

    def _finish_parent(self, parent: Request) -> None:
        parent.completion_time = self.sim.now
        if self.on_read_complete is not None:
            self.on_read_complete(parent)

    def _cancel_losers(self, red: RedundantRead) -> None:
        """Send cancels to every probe still streaming (winner excluded:
        kofn's parent completes at the winner's completion, and quorum
        keeps the deciding connection open).  The cancel takes effect at
        the replica's next scheduling point, one network latency away.
        """
        red.cancel_time = self.sim.now
        latency = self.network.latency
        winner = red.winner_probe
        for probe in red.probes:
            if probe is winner or probe.is_complete:
                continue
            self.sim.schedule_op(latency, self._cancel_op, probe)

    def _deliver_cancel(self, probe: Request, _b=None) -> None:
        if not probe.is_complete:
            probe.cancelled = True

    # ------------------------------------------------------------------
    # writes: fan out to every replica, majority quorum
    # ------------------------------------------------------------------
    def _send_write(self, req: Request) -> None:
        replicas = [int(d) for d in self.ring.devices_for(req.object_id)]
        if self.fault_filter:
            # Fan out to alive replicas only; the quorum shrinks with
            # the alive set (Swift writes to reachable nodes).  A write
            # with *no* alive replica cannot be made durable anywhere:
            # fail loudly instead of pretending a dead quorum exists.
            devices = self.devices
            replicas = [d for d in replicas if not devices[d].failed]
            if not replicas:
                raise SimulationError(
                    f"write rid={req.rid} obj={req.object_id}: "
                    "every replica is fail-stopped; no quorum is reachable"
                )
        req.write_quorum = len(replicas) // 2 + 1
        for dev_idx in replicas:
            device = self.devices[dev_idx]
            self.sim.schedule_op(
                self.network.latency, device.connect_op, Connection(req, self)
            )

    @property
    def queue_length(self) -> int:
        return len(self.queue)
