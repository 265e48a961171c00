"""Gaver--Stehfest algorithm for numerical Laplace inversion.

The only classic inversion scheme needing *real* transform evaluations:

    f(t) ~= (ln 2 / t) * sum_{k=1}^{2M} zeta_k F(k ln 2 / t)

with the Stehfest weights ``zeta_k`` (alternating sums of binomials).
Each extra term roughly adds 0.45 digits but costs ~0.9 digits of working
precision, so in IEEE doubles ``M = 7`` (14 terms) is about optimal --
3-4 significant digits.  Included for completeness and as a third
independent cross-check in the inversion ablation; the model itself
defaults to Euler.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

__all__ = ["gaver_weights", "gaver_invert"]

DEFAULT_TERMS = 7


@lru_cache(maxsize=16)
def gaver_weights(m: int = DEFAULT_TERMS) -> np.ndarray:
    """Stehfest weights ``zeta_1 .. zeta_{2m}`` (exact integer arithmetic)."""
    if m < 1 or m > 10:
        raise ValueError(f"Gaver terms must be in [1, 10], got {m}")
    n = 2 * m
    zeta = np.zeros(n)
    for k in range(1, n + 1):
        acc = 0
        for j in range((k + 1) // 2, min(k, m) + 1):
            num = j**m * factorial(2 * j)
            den = (
                factorial(m - j)
                * factorial(j)
                * factorial(j - 1)
                * factorial(k - j)
                * factorial(2 * j - k)
            )
            acc += num // den if num % den == 0 else num / den
        zeta[k - 1] = (-1) ** (m + k) * acc
    return zeta


def gaver_invert(transform, t, *, terms: int = DEFAULT_TERMS, _rowwise: bool = False):
    """Invert ``transform`` at positive times ``t`` via Gaver--Stehfest.

    ``_rowwise`` sums row by row, as in :func:`~repro.laplace.euler.euler_invert`.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).astype(float)
    if np.any(t_flat <= 0.0):
        raise ValueError("Gaver inversion requires strictly positive times")
    zeta = gaver_weights(terms)
    k = np.arange(1, 2 * terms + 1)
    s = (k[np.newaxis, :] * np.log(2.0)) / t_flat[:, np.newaxis]
    vals = np.real(np.asarray(transform(s.astype(complex)), dtype=complex))
    sums = np.array([row @ zeta for row in vals]) if _rowwise else vals @ zeta
    out = (np.log(2.0) / t_flat) * sums
    if scalar:
        return float(out[0])
    return out.reshape(t_arr.shape)
