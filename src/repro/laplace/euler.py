"""Abate--Whitt Euler algorithm for numerical Laplace inversion.

The unified-framework formulation (Abate & Whitt, *A Unified Framework
for Numerically Inverting Laplace Transforms*, INFORMS J. Computing 2006):
with parameter ``M`` the inversion uses ``2M + 1`` nodes

    beta_k = M ln(10) / 3 + i pi k,          k = 0 .. 2M

and real weights ``eta_k`` built from binomial partial sums (Euler
summation of the alternating Fourier series), giving

    f(t) ~= (10^{M/3} / t) * sum_k  xi_k Re[ F(beta_k / t) ]

with ``xi_k = (-1)^k eta_k``.  The ``10^{M/3}`` prefactor amplifies round-off, so accuracy in IEEE
doubles peaks near ``M = 24`` (~1e-9 absolute for the CDFs of the latency
distributions in this package) and *degrades* for larger ``M``; 24 is the
default.  Accuracy also degrades gracefully near jump discontinuities
(Gibbs behaviour), which is why composites carrying Dirac atoms support
mollification (see :mod:`repro.laplace.inversion`).

This is the paper's missing numerical link: Section III derives Laplace
transforms (P--K waiting time, M/M/1/K sojourn, convolution products) and
reports time-domain percentiles; some inversion algorithm is required to
bridge the two, and Euler is the standard choice for probability CDFs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import comb

__all__ = ["euler_nodes", "euler_invert"]

#: Default number of Euler terms: the double-precision sweet spot where
#: discretisation error (~10^{-M/3}) meets round-off (~10^{M/3} eps).
DEFAULT_TERMS = 24


@lru_cache(maxsize=16)
def euler_nodes(m: int = DEFAULT_TERMS) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(beta, xi)`` node/weight arrays of length ``2m + 1``.

    Nodes are meant to be scaled by ``1/t``; weights already include the
    alternating sign and the ``10^{m/3}`` prefactor is *not* included
    (applied by :func:`euler_invert` to keep the weights well scaled).
    """
    if m < 1 or m > 64:
        raise ValueError(f"Euler terms must be in [1, 64], got {m}")
    k = np.arange(2 * m + 1)
    beta = m * np.log(10.0) / 3.0 + 1j * np.pi * k
    eta = np.ones(2 * m + 1)
    eta[0] = 0.5
    eta[2 * m] = 2.0**-m
    # eta_{2m-j} = eta_{2m-j+1} + 2^{-m} C(m, j), j = 1..m-1
    for j in range(1, m):
        eta[2 * m - j] = eta[2 * m - j + 1] + (2.0**-m) * comb(m, j, exact=True)
    xi = (-1.0) ** k * eta
    return beta, xi


def euler_invert(transform, t, *, terms: int = DEFAULT_TERMS, _rowwise: bool = False):
    """Invert ``transform`` (a callable of complex ``s``) at times ``t``.

    ``t`` may be a scalar or array of positive times; the transform must
    accept numpy complex arrays and broadcast elementwise.  Returns the
    reconstructed ``f(t)`` with the same shape as ``t``.

    ``_rowwise`` (private to the quantile search) sums each time's node
    row on its own, as a one-time call does: a multi-row BLAS product
    sums in a different order and can move the result in the last bits.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).astype(float)
    if np.any(t_flat <= 0.0):
        raise ValueError("Euler inversion requires strictly positive times")
    beta, xi = euler_nodes(terms)
    # s has shape (n_times, n_nodes); transforms are vectorised so one
    # call evaluates the whole stencil.
    s = beta[np.newaxis, :] / t_flat[:, np.newaxis]
    vals = np.real(np.asarray(transform(s), dtype=complex))
    sums = np.array([row @ xi for row in vals]) if _rowwise else vals @ xi
    out = (10.0 ** (terms / 3.0)) * sums / t_flat
    if scalar:
        return float(out[0])
    return out.reshape(t_arr.shape)
