"""Observability plane: tracing, streaming histograms, manifests, diagnostics.

Cooperating, individually-optional facilities that make a run
diagnosable after the fact:

* :mod:`repro.obs.trace` -- per-request span tracing through the
  simulated system (accept wait, frontend queueing, backend union-op
  phases, chunk sends, raw disk operations), emitted as JSONL.  Tracing
  is **zero-overhead when disabled**: every hook site is a single
  ``if tracer is not None`` check and no tracer ever touches a random
  stream, so traced and untraced runs are bit-identical in results.
* :mod:`repro.obs.hist` -- :class:`~repro.obs.hist.LatencyHistogram`, a
  pure-python HdrHistogram-style log-bucketed latency store: bounded
  memory at any request volume, arbitrary percentile queries with a
  known relative-error bound, mergeable across worker processes.
* :mod:`repro.obs.manifest` -- provenance sidecars for experiment
  artifacts: git SHA, seed, config hash, package versions, wall/CPU
  time and evaluation-cache counters.
* :mod:`repro.obs.diagnostics` -- *model-side* diagnostics: a
  :class:`~repro.obs.diagnostics.DiagnosticsSession` that collects
  per-inversion convergence telemetry (self-error, cross-method
  disagreement, repaired probability mass) from the Laplace layer, and
  :func:`~repro.obs.diagnostics.describe_tree` /
  :func:`~repro.obs.diagnostics.render_tree`, a structural walker over
  composite distribution trees (``cosmodel inspect``).
* :mod:`repro.obs.events` -- the sweep event bus: per-point lifecycle
  events (queued / started / finished) appended atomically to a JSONL
  file by serial and parallel runners alike, tailed live by
  ``cosmodel watch``.
* :mod:`repro.obs.telemetry` -- fleet-scale telemetry: deterministic
  head-sampled tracing (:class:`~repro.obs.telemetry.SampledTracer`,
  shard-plan-invariant by construction), live shard streaming onto the
  event bus (:class:`~repro.obs.telemetry.ShardStreamer`, consumed by
  ``cosmodel top``), and the kernel time profiler's merge/render layer.

``cosmodel report <artifact>`` (see :mod:`repro.obs.report`) renders
any of the produced artifacts -- a trace, a histogram dump, a manifest,
a sweep artifact -- as a summary table.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.diagnostics import (
    DiagnosticsSession,
    InversionRecord,
    TreeNode,
    current_session,
    describe_tree,
    render_tree,
    tree_summary,
)
from repro.obs.events import EventLog, follow, read_events, render_events
from repro.obs.hist import LatencyHistogram
from repro.obs.manifest import build_manifest, manifest_path_for, write_manifest
from repro.obs.telemetry import (
    SampledTracer,
    ShardStreamer,
    TelemetryConfig,
    TopView,
    merge_profile_rows,
    merge_shard_traces,
    render_kernel_profile,
    render_top,
)
from repro.obs.trace import Tracer, read_trace

__all__ = [
    "Tracer",
    "SampledTracer",
    "TelemetryConfig",
    "ShardStreamer",
    "TopView",
    "merge_shard_traces",
    "merge_profile_rows",
    "render_kernel_profile",
    "render_top",
    "read_trace",
    "LatencyHistogram",
    "build_manifest",
    "write_manifest",
    "manifest_path_for",
    "DiagnosticsSession",
    "InversionRecord",
    "current_session",
    "TreeNode",
    "describe_tree",
    "render_tree",
    "tree_summary",
    "EventLog",
    "read_events",
    "render_events",
    "follow",
]
