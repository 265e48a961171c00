"""High-level CDF inversion used by the model.

Given a latency distribution known through its Laplace transform ``L(s)``,
the CDF transform is ``L(s) / s``; inverting it at the SLA threshold gives
the paper's headline quantity -- the percentile of requests meeting the
SLA.  This module wraps the three node-based algorithms with:

* method dispatch (``euler`` default / ``talbot`` / ``gaver``),
* clipping to ``[atom_at_zero, 1]`` (the inversion reconstructs the
  absolutely continuous part; atoms at 0 are known exactly from the
  transform algebra and give a hard lower bound),
* optional **mollification** for transforms carrying interior Dirac atoms
  (e.g. degenerate parse latency): convolving with a narrow Gamma smooths
  the jump so Euler's Fourier series converges, at the cost of a
  controlled bias ``~ mollify_width``,
* optional **diagnostics** (an ambient
  :class:`~repro.obs.diagnostics.DiagnosticsSession`): per-call telemetry
  of the half-term self-error estimate, cross-method disagreement, the
  previously-silent repair magnitudes, and memo-hit attribution.  The
  diagnostic re-inversions run with the evaluation cache bypassed and
  touch no random stream, so an instrumented run stays bit-identical.

The clip / NaN-at-denormal / monotone repairs used to be silent; they are
now measured on every fresh computation (a few vector ops against the
hundreds of complex exponentials the inversion itself costs) and a
``RepairWarning`` is emitted when the monotone repair moves more than
``REPAIR_WARN_MASS`` of probability -- at that magnitude the ripple is no
longer roundoff but a sign the series has not converged.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.distributions import evalcache
from repro.laplace.euler import euler_invert
from repro.laplace.gaver import gaver_invert
from repro.laplace.talbot import talbot_invert

__all__ = [
    "invert_cdf",
    "invert_pdf",
    "METHODS",
    "RepairWarning",
    "REPAIR_WARN_MASS",
]

METHODS = {
    "euler": euler_invert,
    "talbot": talbot_invert,
    "gaver": gaver_invert,
}

_DEFAULT_TERMS = {"euler": 24, "talbot": 32, "gaver": 7}

#: Monotone-repair mass above which :class:`RepairWarning` fires.  Normal
#: Gibbs ripple on a converged series moves ~1e-12 of mass; 1e-6 is far
#: outside roundoff and comparable to the SLA-percentile tolerance.
REPAIR_WARN_MASS = 1e-6


class RepairWarning(UserWarning):
    """The silent CDF repairs moved a non-negligible amount of mass."""


def _resolve(method: str):
    try:
        return METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown inversion method {method!r}; choose from {sorted(METHODS)}"
        ) from None


def _sink():
    """The ambient diagnostics session, or ``None``.

    Imported lazily so the hot path pays one module-global read when
    diagnostics are off and ``repro.laplace`` keeps no import-time
    dependency on the observability plane.
    """
    from repro.obs.diagnostics import current_session

    return current_session()


def invert_pdf(
    dist,
    t,
    *,
    method: str = "euler",
    terms: int | None = None,
):
    """Reconstruct the density of ``dist`` at times ``t``.

    Only meaningful where the density exists (atoms show up as spikes of
    inversion noise); primarily a diagnostic / test utility.
    """
    invert = _resolve(method)
    terms = _DEFAULT_TERMS[method] if terms is None else terms
    out = invert(dist.laplace, t, terms=terms)
    sink = _sink()
    if sink is not None:
        t_flat = np.atleast_1d(np.asarray(t, dtype=float))
        _record(
            sink,
            kind="pdf",
            dist=dist,
            raw_transform=dist.laplace,
            method=method,
            terms=terms,
            t_flat=t_flat,
            out=out,
            atom=float("nan"),
            mollify_width=0.0,
            cache_hit=False,
            clip_mass=float("nan"),
            monotone_mass=float("nan"),
            nan_repairs=-1,
        )
    return out


def invert_cdf(
    dist,
    t,
    *,
    method: str = "euler",
    terms: int | None = None,
    mollify_width: float = 0.0,
    _pointwise: bool = False,
):
    """Evaluate ``P(X <= t)`` by inverting ``L(s)/s``.

    ``t`` may be scalar or array; non-positive entries return the zero
    atom (``t == 0``) or 0 (``t < 0``).  ``mollify_width > 0`` convolves
    with a Gamma of that mean and shape 8 before inverting, trading a
    small rightward bias for the removal of Gibbs oscillations around
    interior atoms.  An ambient
    :class:`~repro.obs.diagnostics.DiagnosticsSession` receives an
    :class:`~repro.obs.diagnostics.InversionRecord` for the call.

    ``_pointwise`` is private to
    :meth:`~repro.distributions.base.Distribution.quantile`: every
    entry of ``t`` comes out bit-identical to a one-time call at that
    time.  The cross-point monotone repair is skipped, each node row is
    summed on its own, and the result is memoised under its own key.
    """
    invert = _resolve(method)
    terms = _DEFAULT_TERMS[method] if terms is None else terms
    atom = float(getattr(dist, "atom_at_zero", 0.0))

    if mollify_width > 0.0:
        shape = 8.0
        rate = shape / mollify_width

        def transform(s):
            return evalcache.laplace_eval(dist, s) * (1.0 + s / rate) ** (-shape) / s

    else:

        def transform(s):
            return evalcache.laplace_eval(dist, s) / s

    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).astype(float)

    # Repair telemetry for this call, filled in iff ``compute`` runs
    # (on a memo hit the repairs happened when the entry was built).
    state = {"computed": False, "clip": float("nan"), "mono": float("nan"), "nan": -1}

    def compute() -> np.ndarray:
        state["computed"] = True
        out = np.empty_like(t_flat)
        pos = t_flat > 0.0
        out[~pos] = np.where(t_flat[~pos] == 0.0, atom, 0.0)
        state["clip"] = 0.0
        state["mono"] = 0.0
        state["nan"] = 0
        if np.any(pos):
            with np.errstate(over="ignore", invalid="ignore"):
                vals = np.asarray(
                    invert(transform, t_flat[pos], terms=terms, _rowwise=_pointwise),
                    dtype=float,
                )
            # Node sums can overflow to NaN for t within a few ULP of
            # zero (quadrature nodes scale as 1/t).  The t -> 0+ limit
            # of the CDF is the zero atom; clipping repairs +/-inf.
            nan_mask = np.isnan(vals)
            state["nan"] = int(np.count_nonzero(nan_mask))
            vals[nan_mask] = atom
            clipped = np.clip(vals, atom, 1.0)
            with np.errstate(invalid="ignore"):
                moved = np.abs(clipped - vals)
            state["clip"] = float(moved[np.isfinite(moved)].sum())
            out[pos] = clipped
        if out.size > 1 and not _pointwise:
            # A CDF is non-decreasing, but truncated-series inversion
            # (Gibbs ripple near atoms, cancellation at large ``t``) can
            # produce tiny local inversions.  Enforce monotonicity with a
            # running max taken in time order -- a stable argsort handles
            # unsorted ``t`` without reordering the caller's output.
            order = np.argsort(t_flat, kind="stable")
            before = out[order]
            repaired = np.maximum.accumulate(before)
            state["mono"] = float((repaired - before).sum())
            out[order] = repaired
        if state["mono"] > REPAIR_WARN_MASS:
            warnings.warn(
                f"invert_cdf({type(dist).__name__}, method={method!r}, "
                f"terms={terms}): monotone repair moved "
                f"{state['mono']:.3e} of CDF mass "
                f"({state['nan']} NaN-at-denormal repairs, clip mass "
                f"{state['clip']:.3e}) -- the series has likely not "
                "converged; raise terms or set mollify_width",
                RepairWarning,
                stacklevel=3,
            )
        return out

    # Whole-inversion memo: repeated SLA evaluations of value-identical
    # composites (same times, same quadrature) skip the node sums
    # entirely.  Uncacheable distributions fall straight through.
    out = evalcache.cached_inversion(
        dist, method, terms, mollify_width, t_flat, compute, _pointwise=_pointwise
    )

    sink = _sink()
    if sink is not None:
        if mollify_width > 0.0:

            def raw_transform(s):
                s = np.asarray(s, dtype=complex)
                return dist.laplace(s) * (1.0 + s / rate) ** (-shape) / s

        else:

            def raw_transform(s):
                s = np.asarray(s, dtype=complex)
                return dist.laplace(s) / s

        _record(
            sink,
            kind="cdf",
            dist=dist,
            raw_transform=raw_transform,
            method=method,
            terms=terms,
            t_flat=t_flat,
            out=out,
            atom=atom,
            mollify_width=mollify_width,
            cache_hit=not state["computed"],
            clip_mass=state["clip"],
            monotone_mass=state["mono"],
            nan_repairs=state["nan"],
        )

    if scalar:
        return float(out[0])
    return out.reshape(t_arr.shape)


def _extras_key(dist, kind, method, terms, mollify_width):
    """Session-dedupe key for the diagnostic extras, or ``None``.

    ``None`` (uncacheable / unhashable transform identity) means the
    extras always run -- only value-identified transforms can be safely
    treated as "already checked this session".
    """
    token = None
    cache_token = getattr(dist, "cache_token", None)
    if cache_token is not None:
        try:
            token = cache_token()
            hash(token)
        except Exception:
            token = None
    if token is None:
        return None
    return (kind, method, int(terms), float(mollify_width), token)


def _node_block(method: str, terms: int):
    """``(nodes, weights, prefactor)`` of one inversion stencil.

    All three algorithms share the shape ``f(t) ~= pref(t) *
    Re[F(nodes / t) @ weights]``, which is what lets the diagnostic
    extras evaluate the transform *once* on a concatenated node matrix
    instead of once per method (the tree walk dominates the cost for
    composite transforms, not the node count).
    """
    if method == "euler":
        from repro.laplace.euler import euler_nodes

        beta, xi = euler_nodes(terms)
        return beta.astype(complex), xi.astype(complex), 10.0 ** (terms / 3.0)
    if method == "talbot":
        from repro.laplace.talbot import talbot_nodes

        delta, gamma = talbot_nodes(terms)
        return delta, gamma, 2.0 / 5.0
    if method == "gaver":
        from repro.laplace.gaver import gaver_weights

        zeta = gaver_weights(terms)
        k = np.arange(1, 2 * terms + 1)
        return (k * np.log(2.0)).astype(complex), zeta.astype(complex), np.log(2.0)
    raise ValueError(f"unknown inversion method {method!r}")


def _fused_invert(transform, t, specs):
    """Run several ``(method, terms)`` inversions off one transform call.

    Returns ``{(method, terms): values}`` with ``values`` shaped like
    ``t``.  Equivalent to running each method's inverter on ``transform``
    with its own ``terms``, but the transform -- for composites, a full
    tree walk -- is evaluated on a single concatenated ``s`` matrix.
    """
    blocks = [_node_block(method, terms) for method, terms in specs]
    s = np.concatenate([b[0] for b in blocks])[np.newaxis, :] / t[:, np.newaxis]
    vals = np.asarray(transform(s), dtype=complex)
    out = {}
    start = 0
    for spec, (nodes, weights, pref) in zip(specs, blocks):
        stop = start + nodes.size
        out[spec] = (pref / t) * np.real(vals[:, start:stop] @ weights)
        start = stop
    return out


def _record(
    sink,
    *,
    kind,
    dist,
    raw_transform,
    method,
    terms,
    t_flat,
    out,
    atom,
    mollify_width,
    cache_hit,
    clip_mass,
    monotone_mass,
    nan_repairs,
):
    """Compute the diagnostic extras and push an ``InversionRecord``.

    The comparison base is the *shipped* output on a small subsample of
    the positive times -- the numbers the caller actually received --
    against which the extras re-invert: once at half the term count
    (truncation self-check) and once per cross-check method, all from a
    single fused transform evaluation.  The re-inversion runs inside
    :func:`evalcache.bypass` so it cannot insert cache entries, trigger
    evictions, or otherwise perturb the state the instrumented run sees
    -- and it is a pure function of the transform, so it cannot change
    any result.

    The extras run once per unique ``(transform token, kind, method,
    terms, mollify)`` combination per session; repeat calls are recorded
    with NaN error estimates.
    """
    from repro.obs.diagnostics import (
        CROSS_METHODS,
        MAX_CROSS_POINTS,
        InversionRecord,
    )

    t_flat = np.asarray(t_flat, dtype=float).ravel()
    out_flat = np.atleast_1d(np.asarray(out, dtype=float)).ravel()
    pos_idx = np.flatnonzero(t_flat > 0.0)
    self_error = float("nan")
    cross = float("nan")
    if pos_idx.size and sink.should_check(
        _extras_key(dist, kind, method, terms, mollify_width)
    ):
        n = min(MAX_CROSS_POINTS, pos_idx.size)
        sel = pos_idx[
            np.unique(np.linspace(0, pos_idx.size - 1, n).round().astype(int))
        ]
        t_sub, first = np.unique(t_flat[sel], return_index=True)
        base = out_flat[sel][first]

        def clipped(values) -> np.ndarray:
            vals = np.asarray(values, dtype=float)
            vals = np.where(np.isnan(vals), atom if kind == "cdf" else 0.0, vals)
            if kind == "cdf":
                vals = np.clip(vals, atom, 1.0)
            return vals

        specs = []
        half_spec = None
        if terms >= 2:
            half_spec = (method, terms // 2)
            specs.append(half_spec)
        cross_specs = [
            (m, _DEFAULT_TERMS[m]) for m in CROSS_METHODS if m != method
        ]
        specs.extend(cs for cs in cross_specs if cs not in specs)
        if specs:
            with evalcache.bypass(), np.errstate(over="ignore", invalid="ignore"):
                estimates = _fused_invert(raw_transform, t_sub, specs)
            if half_spec is not None:
                self_error = float(
                    np.max(np.abs(base - clipped(estimates[half_spec])))
                )
            if cross_specs:
                cross = max(
                    float(np.max(np.abs(base - clipped(estimates[cs]))))
                    for cs in cross_specs
                )

    sink.record(
        InversionRecord(
            kind=kind,
            method=method,
            terms=int(terms),
            n_times=int(t_flat.size),
            t_min=float(t_flat.min()) if t_flat.size else float("nan"),
            t_max=float(t_flat.max()) if t_flat.size else float("nan"),
            mollify_width=float(mollify_width),
            cache_hit=bool(cache_hit),
            self_error=self_error,
            cross_disagreement=cross,
            clip_mass=clip_mass,
            monotone_mass=monotone_mass,
            nan_repairs=nan_repairs,
        )
    )
