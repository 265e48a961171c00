"""Discrete-event simulator of a two-tier event-driven object store.

The stand-in for the paper's 7-node OpenStack Swift testbed: frontend
proxy processes, backend storage devices with FCFS operation queues,
blocking disk I/O, byte-budget LRU caches, connection pools with batch
accept(), chunked interleaved reads, and a Swift-style hash ring.
"""

from repro.simulator.backend import (
    Connection,
    DeviceCounters,
    StorageDevice,
    StorageProcess,
)
from repro.simulator.cache import StampLru
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.core import SimulationError, Simulator
from repro.simulator.disk import OP_DATA, OP_INDEX, OP_META, Disk, HddProfile
from repro.simulator.dispatch import (
    DISPATCH_POLICIES,
    DispatchPolicy,
    LoadView,
    make_policy,
)
from repro.simulator.faults import (
    BackendStall,
    CacheFlush,
    DeviceFailStop,
    DiskSlowdown,
    FaultSchedule,
    Phase,
)
from repro.simulator.frontend import FrontendProcess
from repro.simulator.metrics import (
    MetricsRecorder,
    PhaseStats,
    RequestTable,
    dispatch_imbalance,
    merge_recorder_states,
    phase_attribution,
    sla_percentile,
    sla_percentile_ci,
)
from repro.simulator.network import NetworkProfile
from repro.simulator.request import Request
from repro.simulator.ring import HashRing
from repro.simulator.scanner import MaintenanceScanner
from repro.simulator.rng import RngStreams

__all__ = [
    "Connection",
    "DeviceCounters",
    "StorageDevice",
    "StorageProcess",
    "StampLru",
    "Cluster",
    "ClusterConfig",
    "SimulationError",
    "Simulator",
    "OP_DATA",
    "OP_INDEX",
    "OP_META",
    "Disk",
    "HddProfile",
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "LoadView",
    "make_policy",
    "BackendStall",
    "CacheFlush",
    "DeviceFailStop",
    "DiskSlowdown",
    "FaultSchedule",
    "Phase",
    "FrontendProcess",
    "MetricsRecorder",
    "PhaseStats",
    "RequestTable",
    "dispatch_imbalance",
    "merge_recorder_states",
    "phase_attribution",
    "sla_percentile",
    "sla_percentile_ci",
    "NetworkProfile",
    "Request",
    "HashRing",
    "MaintenanceScanner",
    "RngStreams",
]
