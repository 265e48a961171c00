"""Model-side diagnostics: inversion telemetry + distribution-tree introspection.

The analytic half of the reproduction -- the Laplace-transform pipeline
behind Equation 3 -- historically failed *quietly*: ``invert_cdf``
clips, mollifies and monotone-repairs without a trace, and a prediction
that disagrees with simulation gives no hint whether the culprit is a
queueing-stage approximation, a numerical-inversion artifact (Gibbs
ripple, term truncation) or a cache bug.  This module makes those
failure modes observable without perturbing a single number:

* :class:`DiagnosticsSession` -- an activatable sink that
  :func:`repro.laplace.inversion.invert_cdf` / ``invert_pdf`` report
  into.  Per call it records the term-halving **self-error estimate**
  (re-invert at half the term count with the cache bypassed and compare),
  the **cross-method disagreement** (independent algorithms on a
  subsample of ``t``), the previously-silent **repair magnitudes**
  (clip / NaN-at-denormal / monotone running-max) and whether the call
  was served from the inversion memo.  Sessions aggregate across a run
  and flag calls whose self-error exceeds :data:`TOLERANCE`.

* :func:`describe_tree` / :func:`render_tree` -- walk a composite
  distribution (the Section III-B union-operation algebra) and report
  per-node structure, atom-at-zero mass, mean/variance (closed-form via
  transform derivatives where the node knows them, numeric fallback in
  :class:`~repro.distributions.composite.TransformDistribution`) and
  value-token reuse, so laws shared across devices are visible.
  Rendered by ``cosmodel inspect``.

Both contracts of the observability plane hold here too: **zero overhead
off** (the sink lookup is one module-global read per inversion) and
**bit-identity on** (diagnostic re-inversions bypass the evaluation
cache entirely and never touch a random stream, so an instrumented run
produces byte-identical artifacts).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "InversionRecord",
    "DiagnosticsSession",
    "current_session",
    "TreeNode",
    "describe_tree",
    "render_tree",
]


# ----------------------------------------------------------------------
# Inversion telemetry
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InversionRecord:
    """Telemetry for one ``invert_cdf`` / ``invert_pdf`` call."""

    kind: str  # "cdf" or "pdf"
    method: str
    terms: int
    n_times: int
    t_min: float
    t_max: float
    mollify_width: float
    cache_hit: bool
    #: Max |shipped - f_{M/2}| over a subsample of the evaluated times;
    #: the standard term-halving truncation self-check (the half-term
    #: series carries the error the full series is about to shed, so it
    #: bounds the shipped values' own error whenever convergence is
    #: geometric).  NaN when not computed.
    self_error: float
    #: Max disagreement of the shipped values against the cross-check
    #: methods on the subsample (after identical clipping).  NaN when
    #: not computed.
    cross_disagreement: float
    #: Silent-repair exposure: how much mass the clip to [atom, 1], the
    #: NaN-at-denormal repair and the monotone running-max each touched.
    #: NaN on a memo hit (the repairs happened when the entry was first
    #: computed).
    clip_mass: float
    monotone_mass: float
    nan_repairs: int

    @property
    def repaired_mass(self) -> float:
        """Total mass moved by the silent repairs (clip + monotone)."""
        if math.isnan(self.clip_mass):
            return float("nan")
        return self.clip_mass + self.monotone_mass


#: Calls whose self-error estimate exceeds this are flagged
#: (:meth:`DiagnosticsSession.flagged`), the "your percentile may be
#: wrong" signal.
TOLERANCE = 1e-6
#: Independent algorithms the shipped values are cross-checked against.
#: The high-precision pair; ``gaver``'s ~1e-4 precision floor would
#: dominate the disagreement.
CROSS_METHODS = ("euler", "talbot")
#: Subsample size of the self- and cross-checks (evenly spaced over ``t``).
MAX_CROSS_POINTS = 8


class DiagnosticsSession:
    """Aggregates :class:`InversionRecord` telemetry across a run.

    Use as a context manager to make it the ambient sink every
    ``invert_cdf`` / ``invert_pdf`` call reports into::

        with DiagnosticsSession() as diag:
            model.sla_percentile(0.1)
        print(diag.render())

    Sessions nest (the innermost active one receives the records).

    The term-halving self-check and the :data:`CROSS_METHODS` cross-check
    run once per unique transform identity (cache token +
    kind/method/terms/mollify) per session; repeat calls are still
    recorded but carry NaN error estimates.  The extras cost a full
    (cache-bypassed) tree walk per check, and a sweep point re-inverts
    the same few transforms at every SLA threshold, so this is what
    keeps instrumented sweeps cheap.
    """

    def __init__(self) -> None:
        self.records: list[InversionRecord] = []
        self._seen: set = set()

    def should_check(self, key) -> bool:
        """Whether the extras should run for a call with this identity.

        ``None`` keys (uncacheable transforms) always run; a hashable key
        runs on first sight only.
        """
        if key is None:
            return True
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # -- ambient installation ------------------------------------------
    def __enter__(self) -> "DiagnosticsSession":
        _STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        # Pop *this* session even if the stack was perturbed.
        for i in range(len(_STACK) - 1, -1, -1):
            if _STACK[i] is self:
                del _STACK[i]
                break

    # -- recording ------------------------------------------------------
    def record(self, rec: InversionRecord) -> None:
        self.records.append(rec)

    # -- reduction ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def flagged(self) -> list[InversionRecord]:
        """Calls whose self-error estimate exceeds the tolerance."""
        return [
            r
            for r in self.records
            if not math.isnan(r.self_error) and r.self_error > TOLERANCE
        ]

    @staticmethod
    def _nanmax(values) -> float:
        vals = [v for v in values if not math.isnan(v)]
        return max(vals) if vals else float("nan")

    def summary(self) -> dict:
        """JSON-ready aggregate: counts, worst errors, repaired mass."""
        recs = self.records
        total_repaired = sum(
            r.repaired_mass for r in recs if not math.isnan(r.repaired_mass)
        )
        return {
            "n_calls": len(recs),
            "n_cache_hits": sum(r.cache_hit for r in recs),
            "n_flagged": len(self.flagged()),
            "tolerance": TOLERANCE,
            "max_self_error": self._nanmax(r.self_error for r in recs),
            "max_cross_disagreement": self._nanmax(
                r.cross_disagreement for r in recs
            ),
            "cross_methods": list(CROSS_METHODS),
            "total_repaired_mass": total_repaired,
            "total_nan_repairs": sum(
                r.nan_repairs for r in recs if r.nan_repairs >= 0
            ),
            "methods": sorted({r.method for r in recs}),
        }

    def render(self) -> str:
        """Human-readable session report."""
        s = self.summary()
        lines = [
            "inversion diagnostics session:",
            f"  calls                 {s['n_calls']}"
            f"  (memo hits {s['n_cache_hits']})",
            f"  max self-error        {s['max_self_error']:.3e}"
            f"  (tolerance {s['tolerance']:.1e}, {s['n_flagged']} flagged)",
            f"  max cross-method gap  {s['max_cross_disagreement']:.3e}"
            f"  ({' vs '.join(CROSS_METHODS)})",
            f"  repaired mass         {s['total_repaired_mass']:.3e}"
            f"  ({s['total_nan_repairs']} NaN-at-denormal repairs)",
        ]
        for rec in self.flagged()[:10]:
            lines.append(
                f"    FLAG {rec.kind} {rec.method}/{rec.terms} "
                f"t in [{rec.t_min:.4g}, {rec.t_max:.4g}]: "
                f"self-error {rec.self_error:.3e}"
            )
        return "\n".join(lines)


#: Ambient session stack; the innermost active session is the sink.
_STACK: list[DiagnosticsSession] = []


def current_session() -> DiagnosticsSession | None:
    """The innermost active session, or ``None`` when diagnostics are off.

    This is the single module-global read the inversion hot path pays
    when diagnostics are disabled.
    """
    return _STACK[-1] if _STACK else None


# ----------------------------------------------------------------------
# Distribution-tree introspection
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TreeNode:
    """One node of a composite distribution's structure tree."""

    kind: str  # class name of the node
    detail: str  # structural parameters, human-formatted
    mean: float
    variance: float
    atom_at_zero: float
    cacheable: bool
    #: How many nodes in the *whole* tree share this node's cache token
    #: (1 = unique; >1 = value-identical subtree reused).  0 for
    #: uncacheable nodes.
    token_reuse: int
    children: tuple["TreeNode", ...]

    @property
    def n_nodes(self) -> int:
        return 1 + sum(c.n_nodes for c in self.children)


def _children_of(dist):
    """The sub-distributions a composite is built from (empty for leaves)."""
    from repro.distributions.composite import (
        Convolution,
        Mixture,
        PoissonCompound,
        Scaled,
        Shifted,
        ZeroInflated,
    )

    if isinstance(dist, (Mixture, Convolution)):
        return dist.components
    if isinstance(dist, (ZeroInflated, PoissonCompound, Scaled, Shifted)):
        return (dist.base,)
    return ()


def _detail_of(dist) -> str:
    """Structural parameters of a node, one short human string."""
    from repro.distributions.composite import (
        Convolution,
        Empirical,
        Mixture,
        PoissonCompound,
        Scaled,
        Shifted,
        TransformDistribution,
        ZeroInflated,
    )

    if isinstance(dist, Mixture):
        w = ", ".join(f"{x:.4g}" for x in dist.weights[:4])
        more = ", ..." if len(dist.weights) > 4 else ""
        return f"weights=[{w}{more}]"
    if isinstance(dist, Convolution):
        return f"n={len(dist.components)}"
    if isinstance(dist, ZeroInflated):
        return f"miss_ratio={dist.miss_ratio:.4g}"
    if isinstance(dist, PoissonCompound):
        return f"rate={dist.rate:.4g}"
    if isinstance(dist, Scaled):
        return f"factor={dist.factor:.4g}"
    if isinstance(dist, Shifted):
        return f"shift={dist.shift:.4g}"
    if isinstance(dist, TransformDistribution):
        return f"name={dist.name!r}"
    if isinstance(dist, Empirical):
        return f"n={dist.samples.size}"
    # Analytic leaves: their repr already names the parameters; strip
    # the class wrapper so the tree line doesn't read ``Gamma(Gamma(...))``.
    text = repr(dist)
    kind = type(dist).__name__
    if text.startswith(kind + "(") and text.endswith(")"):
        return text[len(kind) + 1 : -1]
    return text


def _count_tokens(dist, counts: dict) -> None:
    token = dist.cache_token() if hasattr(dist, "cache_token") else None
    if token is not None:
        counts[token] = counts.get(token, 0) + 1
    for child in _children_of(dist):
        _count_tokens(child, counts)


def describe_tree(dist) -> TreeNode:
    """Walk a (composite) distribution into a :class:`TreeNode` tree.

    Every node reports its structure, first two moments, zero-atom mass
    and how often its cache token recurs across the tree -- the
    node-sharing the evaluation cache exploits.  Works on any
    :class:`~repro.distributions.base.Distribution`; leaves are their
    own single-node tree.
    """
    counts: dict = {}
    _count_tokens(dist, counts)

    def build(node) -> TreeNode:
        token = node.cache_token() if hasattr(node, "cache_token") else None
        return TreeNode(
            kind=type(node).__name__,
            detail=_detail_of(node),
            mean=float(node.mean),
            variance=float(node.variance),
            atom_at_zero=float(node.atom_at_zero),
            cacheable=token is not None,
            token_reuse=counts.get(token, 0) if token is not None else 0,
            children=tuple(build(c) for c in _children_of(node)),
        )

    return build(dist)


def render_tree(dist_or_node, *, max_depth: int | None = None) -> str:
    """Indented text rendering of :func:`describe_tree`.

    Each line shows the node kind, its structural detail, mean/std/atom
    and a ``xN`` marker when its value token recurs N>1 times (one law
    shared across devices, such as a calibrated disk profile; a model's
    :class:`~repro.model.plan.SystemPlan` evaluates a shared leaf law
    once per node array).
    """
    node = (
        dist_or_node
        if isinstance(dist_or_node, TreeNode)
        else describe_tree(dist_or_node)
    )
    lines: list[str] = []

    def emit(n: TreeNode, depth: int) -> None:
        stats = (
            f"mean={n.mean * 1e3:.4g}ms sd={math.sqrt(n.variance) * 1e3:.4g}ms"
        )
        if n.atom_at_zero > 0.0:
            stats += f" atom0={n.atom_at_zero:.4g}"
        marks = ""
        if not n.cacheable:
            marks = "  [uncacheable]"
        elif n.token_reuse > 1:
            marks = f"  [shared x{n.token_reuse}]"
        lines.append(f"{'  ' * depth}{n.kind}({n.detail})  {stats}{marks}")
        if max_depth is not None and depth + 1 > max_depth:
            if n.children:
                lines.append(f"{'  ' * (depth + 1)}... {len(n.children)} children")
            return
        for c in n.children:
            emit(c, depth + 1)

    emit(node, 0)
    return "\n".join(lines)


def tree_summary(dist) -> dict:
    """JSON-ready aggregate of a tree: node/kind counts and token reuse."""
    root = describe_tree(dist)
    kinds: dict[str, int] = {}
    shared = 0
    uncacheable = 0

    def walk(n: TreeNode) -> None:
        nonlocal shared, uncacheable
        kinds[n.kind] = kinds.get(n.kind, 0) + 1
        if not n.cacheable:
            uncacheable += 1
        elif n.token_reuse > 1:
            shared += 1
        for c in n.children:
            walk(c)

    walk(root)
    return {
        "n_nodes": root.n_nodes,
        "kinds": kinds,
        "n_shared_nodes": shared,
        "n_uncacheable_nodes": uncacheable,
        "mean": root.mean,
        "atom_at_zero": root.atom_at_zero,
    }
