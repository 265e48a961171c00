"""Fleet-scale simulation: sharded independent-cluster execution.

The ROADMAP's what-if service needs episodes far beyond the paper's
50k-request validation runs: fleets of tens of clusters / hundreds of
devices under millions of requests.  The paper's own model licenses the
scaling trick -- Equations 3/4 decompose the system into a mixture over
*independent* per-device sojourn times -- and a storage fleet has the
same structure one level up: requests are routed to a cluster by a pure
hash of the object key, clusters share no queues, caches or random
streams, so a fleet episode factorises exactly into per-cluster
episodes.

This module exploits that factorisation:

* a :class:`FleetScenario` describes ``n_clusters`` identical clusters
  serving one global object catalog; each object is *owned* by exactly
  one cluster via the same Knuth multiplicative hash the intra-cluster
  ring uses for partitions (``owner = (id * K) mod n_clusters``);
* the fleet's open-loop request trace and warmup stream are generated
  once (whole arrival/key arrays pre-sampled with numpy) and **split by
  ownership** into per-cluster sub-traces that keep their absolute
  timestamps;
* a :class:`ShardPlan` partitions the cluster ids into shards; each
  shard runs its clusters in its own process (same paired seed-spawning
  discipline as :mod:`repro.experiments.parallel`: cluster ``i``'s
  :class:`~numpy.random.SeedSequence` is spawned from the fleet seed by
  index, never by shard layout or pool scheduling);
* per-cluster :class:`~repro.simulator.metrics.MetricsRecorder` state is
  merged with the canonically associative
  :func:`~repro.simulator.metrics.merge_recorder_states`, so the merged
  result is **bit-identical** for every shard count and worker count --
  the serial run *is* the one-shard run.

Exactness holds for open-loop traces because frontend dispatch is a pure
function of the key: nothing a request does in cluster A can influence
when, or how, a request arrives at cluster B.  Closed-loop clients (the
next arrival depends on a completion, wherever it happened) and faults
correlated across clusters break that purity; see
``docs/PERFORMANCE.md`` section 7 for where sharding degrades to an
approximation.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time

import numpy as np

from repro.obs.telemetry import (
    SampledTracer,
    TelemetryConfig,
    merge_profile_rows,
    shard_trace_path,
)
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.metrics import MetricsRecorder, merge_recorder_states
from repro.simulator.ring import _HASH_MULT
from repro.workload.arrivals import poisson_arrivals
from repro.workload.catalog import ObjectCatalog

__all__ = [
    "FleetScenario",
    "ShardPlan",
    "ClusterTask",
    "FleetResult",
    "cluster_owner",
    "build_cluster_tasks",
    "run_fleet",
]


def cluster_owner(object_ids: np.ndarray, n_clusters: int) -> np.ndarray:
    """Owning cluster of each object id: a pure multiplicative hash.

    Uses the ring's Knuth constant so the fleet-level key->cluster map
    has the same stationary, order-free character as the intra-cluster
    key->partition map.  Purity is what makes shard-by-ownership exact:
    the sub-trace a cluster sees depends only on the trace itself.
    """
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    ids = np.asarray(object_ids, dtype=np.int64)
    return (ids * _HASH_MULT) % n_clusters


@dataclasses.dataclass(frozen=True)
class FleetScenario:
    """Static description of one fleet episode.

    The fleet is ``n_clusters`` identical, independent clusters; the
    catalog, request rate and warmup budget are *fleet-wide* (each
    cluster owns roughly ``1/n_clusters`` of the objects and therefore
    of the traffic).
    """

    n_clusters: int = 4
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    objects_per_cluster: int = 2_000
    mean_object_size: float = 32_768.0
    size_sigma: float = 1.2
    zipf_s: float = 0.9
    #: Total fleet arrival rate (requests/second across all clusters).
    rate: float = 300.0
    duration: float = 20.0
    #: Fleet-wide warmup accesses replayed against the caches (split by
    #: ownership, like the trace).
    warm_accesses: int = 20_000
    write_fraction: float = 0.0
    #: Arrivals are pre-sampled for the whole episode but handed to each
    #: cluster's kernel one window at a time, so lane memory stays
    #: bounded on million-request episodes.
    arrival_window: float = 60.0
    latency_store: str = "exact"
    record_disk_samples: bool = False
    #: Post-horizon drain budget per cluster (events), a runaway guard.
    max_drain_events: int | None = 200_000_000
    #: Fleet telemetry (sampled tracing / live shard streaming / kernel
    #: profiler); ``None`` means fully silent.  All three facilities are
    #: bit-identity-preserving: the merged recorder state is the same
    #: with telemetry on or off (pinned by ``tests/test_telemetry.py``).
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if self.objects_per_cluster < 1:
            raise ValueError("need at least one object per cluster")
        if not (0.0 < self.rate < math.inf and 0.0 < self.duration < math.inf):
            raise ValueError("rate and duration must be positive and finite")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if not 0.0 < self.arrival_window < math.inf:
            raise ValueError("arrival_window must be positive and finite")
        if self.warm_accesses < 0:
            raise ValueError("warm_accesses must be >= 0")

    @property
    def n_objects(self) -> int:
        return self.n_clusters * self.objects_per_cluster

    @property
    def n_devices(self) -> int:
        return self.n_clusters * self.cluster.n_devices

    def catalog(self) -> ObjectCatalog:
        """The fleet's global catalog; pure in the scenario fields."""
        return ObjectCatalog.synthetic(
            self.n_objects,
            mean_size=self.mean_object_size,
            size_sigma=self.size_sigma,
            zipf_s=self.zipf_s,
            rng=np.random.default_rng(np.random.SeedSequence(20170814)),
        )


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A partition of the fleet's cluster ids into execution shards.

    Every cluster id in ``range(n_clusters)`` must appear in exactly one
    shard; beyond that the grouping is free -- results do not depend on
    it (that is the point, and the bit-identity tests pin it).
    """

    shards: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.shards or any(not s for s in self.shards):
            raise ValueError("every shard must contain at least one cluster")
        flat = [c for shard in self.shards for c in shard]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError(
                "shards must partition range(n_clusters) exactly "
                f"(got {sorted(flat)})"
            )
        object.__setattr__(
            self, "shards", tuple(tuple(int(c) for c in s) for s in self.shards)
        )

    @classmethod
    def contiguous(cls, n_clusters: int, n_shards: int) -> "ShardPlan":
        """Balanced contiguous blocks: ``n_shards`` shards over
        ``n_clusters`` clusters (capped at one cluster per shard)."""
        if n_clusters < 1 or n_shards < 1:
            raise ValueError("need at least one cluster and one shard")
        n_shards = min(n_shards, n_clusters)
        bounds = np.linspace(0, n_clusters, n_shards + 1).astype(int)
        return cls(
            tuple(
                tuple(range(lo, hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            )
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_clusters(self) -> int:
        return sum(len(s) for s in self.shards)


@dataclasses.dataclass(frozen=True, eq=False)
class ClusterTask:
    """One cluster's complete, shard-independent unit of work.

    Carries the cluster's spawned seed and its ownership slice of the
    fleet trace/warmup (absolute timestamps preserved).  A task is a
    pure function input: running it in any process, in any order, next
    to any other tasks, produces the same recorder state.
    """

    index: int
    seed: np.random.SeedSequence
    times: np.ndarray
    object_ids: np.ndarray
    writes: np.ndarray | None
    warm_ids: np.ndarray


@dataclasses.dataclass(frozen=True)
class FleetResult:
    """Merged outcome of one fleet episode."""

    #: Canonical merged recorder snapshot (the bit-identity artifact:
    #: equal across all shard plans and worker counts).
    state: dict
    n_requests: int
    #: Kernel events scheduled across all clusters.
    events: int
    disk_ops: int
    #: Per-cluster ``(index, n_requests, events, disk_ops)`` rows.
    per_cluster: tuple[tuple[int, int, int, int], ...]
    n_shards: int
    jobs: int
    #: Merged kernel-profile attribution rows (empty unless
    #: ``telemetry.profile`` was on; wall seconds are *not* part of the
    #: bit-identity contract, only the event counts are).
    profile: tuple[dict, ...] = ()
    #: Per-cluster sampled-trace files (``telemetry.trace_dir`` runs).
    trace_paths: tuple[str, ...] = ()

    @property
    def recorder(self) -> MetricsRecorder:
        """A :class:`MetricsRecorder` rebuilt from the merged state."""
        return MetricsRecorder.from_state(self.state)


# ----------------------------------------------------------------------
# task construction (parent side)
# ----------------------------------------------------------------------


def build_cluster_tasks(
    scenario: FleetScenario, seed: int
) -> tuple[ObjectCatalog, list[ClusterTask]]:
    """Generate the fleet trace and split it into per-cluster tasks.

    Seed discipline mirrors :mod:`repro.experiments.parallel`: the fleet
    root seed spawns one child per cluster (by index) plus one for the
    trace, so cluster ``i``'s streams are identical no matter how many
    shards or workers later run it.  The whole arrival/key/write stream
    is pre-sampled vectorised, then partitioned by the ownership hash --
    a deterministic mask per cluster, preserving arrival order.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(scenario.n_clusters + 1)
    cluster_seeds, trace_seed = children[:-1], children[-1]

    catalog = scenario.catalog()
    rng = np.random.default_rng(trace_seed)
    times = poisson_arrivals(scenario.rate, 0.0, scenario.duration, rng)
    object_ids = catalog.sample_objects(rng, times.size)
    writes = None
    if scenario.write_fraction > 0.0:
        writes = rng.random(times.size) < scenario.write_fraction
    warm_ids = catalog.sample_objects(rng, scenario.warm_accesses)

    owner = cluster_owner(object_ids, scenario.n_clusters)
    warm_owner = cluster_owner(warm_ids, scenario.n_clusters)
    tasks = []
    for c in range(scenario.n_clusters):
        mask = owner == c
        tasks.append(
            ClusterTask(
                index=c,
                seed=cluster_seeds[c],
                times=times[mask],
                object_ids=object_ids[mask],
                writes=None if writes is None else writes[mask],
                warm_ids=warm_ids[warm_owner == c],
            )
        )
    return catalog, tasks


# ----------------------------------------------------------------------
# per-cluster execution (worker side)
# ----------------------------------------------------------------------


def _run_cluster(scenario: FleetScenario, sizes: np.ndarray, task: ClusterTask) -> dict:
    """Run one cluster's episode to completion; returns counters + state.

    Pure in ``(scenario, sizes, task)``.  Arrivals are fed to the kernel
    as event lanes one ``arrival_window`` at a time (bounded memory);
    the cyclic GC is paused for the episode for the same reason as
    :func:`repro.experiments.parallel.run_point`.

    Telemetry hooks (``scenario.telemetry``) bolt on here without
    touching the episode's randomness: the sampled tracer is seeded from
    ``(trace_seed, task.index)`` (shard-plan-invariant by construction),
    the profiler is enabled before the first event runs, and shard
    streaming only ever reads the recorder.
    """
    telem = scenario.telemetry or TelemetryConfig()
    was_enabled = gc.isenabled()
    gc.disable()
    t_wall = time.perf_counter()
    try:
        tracer = None
        if telem.tracing:
            tracer = SampledTracer(
                telem.trace_sample_rate,
                seed=telem.trace_seed,
                cluster_index=task.index,
            )
        cluster = Cluster(
            scenario.cluster,
            sizes,
            seed=task.seed,
            record_disk_samples=scenario.record_disk_samples,
            latency_store=scenario.latency_store,
            tracer=tracer,
        )
        if telem.profile:
            cluster.sim.enable_profile()
        streamer = None
        if telem.streaming:
            from repro.obs.events import EventLog
            from repro.obs.telemetry import ShardStreamer

            streamer = ShardStreamer(
                EventLog(telem.bus_path),
                cluster,
                cluster_index=task.index,
                duration=scenario.duration,
                interval=telem.stream_interval,
            )
            streamer.heartbeat()
        cluster.warm_caches(task.warm_ids)
        times = task.times
        lo = 0
        t = 0.0
        while t < scenario.duration:
            t = min(t + scenario.arrival_window, scenario.duration)
            hi = int(np.searchsorted(times, t, side="right"))
            if hi > lo:
                cluster.schedule_arrivals(
                    times[lo:hi],
                    task.object_ids[lo:hi],
                    None if task.writes is None else task.writes[lo:hi],
                )
                lo = hi
            cluster.run_until(t)
            if streamer is not None:
                streamer.maybe_snapshot()
        cluster.drain(max_events=scenario.max_drain_events)
        if streamer is not None:
            streamer.finish(wall_s=time.perf_counter() - t_wall)
        trace_path = None
        if tracer is not None and telem.trace_dir is not None:
            from repro.obs.trace import write_trace

            trace_path = shard_trace_path(telem.trace_dir, task.index)
            write_trace(tracer.events, trace_path)
        return {
            "index": task.index,
            "state": cluster.metrics.state(),
            "n_requests": cluster.metrics.n_requests,
            "events": cluster.sim.events_scheduled,
            "disk_ops": cluster.total_disk_ops,
            "profile": cluster.sim.profile_snapshot() if telem.profile else [],
            "trace_path": trace_path,
        }
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# shard plumbing
# ----------------------------------------------------------------------

_WORKER_FLEET: tuple | None = None


def _init_fleet_worker(payload: tuple) -> None:
    global _WORKER_FLEET
    _WORKER_FLEET = payload


def _run_shard_tasks(
    scenario: FleetScenario, sizes: np.ndarray, tasks: tuple[ClusterTask, ...]
) -> dict:
    """Run one shard's clusters in index order and pre-merge its states."""
    results = [_run_cluster(scenario, sizes, task) for task in tasks]
    return {
        "state": merge_recorder_states([r["state"] for r in results]),
        "per_cluster": [
            (r["index"], r["n_requests"], r["events"], r["disk_ops"])
            for r in results
        ],
        "profile": merge_profile_rows([r["profile"] for r in results]),
        "trace_paths": [
            r["trace_path"] for r in results if r["trace_path"] is not None
        ],
    }


def _run_shard(tasks: tuple[ClusterTask, ...]) -> dict:
    assert _WORKER_FLEET is not None, "fleet worker pool not initialised"
    scenario, sizes = _WORKER_FLEET
    return _run_shard_tasks(scenario, sizes, tasks)


def run_fleet(
    scenario: FleetScenario,
    *,
    seed: int = 0,
    shards: int | ShardPlan | None = None,
    jobs: int | None = None,
) -> FleetResult:
    """Run one fleet episode, optionally sharded over a process pool.

    ``shards`` is a :class:`ShardPlan`, a shard count (contiguous
    blocks), or ``None`` for the serial single-shard plan.  ``jobs``
    bounds pool workers (``None``/``1`` runs every shard inline; the
    explicit value is honoured even beyond the host's core count, so
    identity tests can exercise a real pool on small machines -- fleet
    shards are coarse enough that oversubscription only costs wall
    time).  Results are **bit-identical across all shard plans and
    worker counts**: per-cluster randomness is spawned by index from the
    fleet seed, and the metric merge is canonically associative.  When a
    pool cannot be created the shards degrade to inline execution.
    """
    if shards is None:
        plan = ShardPlan.contiguous(scenario.n_clusters, 1)
    elif isinstance(shards, int):
        plan = ShardPlan.contiguous(scenario.n_clusters, shards)
    else:
        plan = shards
    if plan.n_clusters != scenario.n_clusters:
        raise ValueError(
            f"shard plan covers {plan.n_clusters} clusters, scenario has "
            f"{scenario.n_clusters}"
        )

    catalog, tasks = build_cluster_tasks(scenario, seed)
    shard_tasks = [
        tuple(tasks[c] for c in shard_members) for shard_members in plan.shards
    ]

    telem = scenario.telemetry or TelemetryConfig()
    bus = None
    if telem.streaming:
        from repro.obs.events import EventLog

        bus = EventLog(telem.bus_path)
        bus.emit(
            "fleet_started",
            n_clusters=scenario.n_clusters,
            n_shards=plan.n_shards,
            rate=scenario.rate,
            duration=scenario.duration,
        )
    t_wall = time.perf_counter()

    n_workers = min(int(jobs or 1), len(shard_tasks))
    shard_results = None
    if n_workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_fleet_worker,
                initargs=((scenario, catalog.sizes),),
            ) as pool:
                try:
                    shard_results = list(pool.map(_run_shard, shard_tasks))
                except BrokenProcessPool:
                    shard_results = None
        except (ImportError, OSError, PermissionError):
            shard_results = None
    if shard_results is None:
        shard_results = [
            _run_shard_tasks(scenario, catalog.sizes, ts) for ts in shard_tasks
        ]

    merged = merge_recorder_states([r["state"] for r in shard_results])
    per_cluster = sorted(
        row for r in shard_results for row in r["per_cluster"]
    )
    n_requests = sum(row[1] for row in per_cluster)
    if bus is not None:
        bus.emit(
            "fleet_finished",
            n_clusters=scenario.n_clusters,
            n_requests=n_requests,
            wall_s=round(time.perf_counter() - t_wall, 3),
        )
        bus.close()
    return FleetResult(
        state=merged,
        n_requests=n_requests,
        events=sum(row[2] for row in per_cluster),
        disk_ops=sum(row[3] for row in per_cluster),
        per_cluster=tuple(tuple(row) for row in per_cluster),
        n_shards=plan.n_shards,
        jobs=n_workers,
        profile=tuple(
            merge_profile_rows([r["profile"] for r in shard_results])
        ),
        trace_paths=tuple(
            p for r in shard_results for p in r["trace_paths"]
        ),
    )
