"""Fixed Talbot algorithm for numerical Laplace inversion.

The unified-framework fixed-Talbot method (Abate & Whitt 2006): with ``M``
nodes on the deformed Bromwich contour

    delta_0 = 2 M / 5
    delta_k = (2 k pi / 5) (cot(k pi / M) + i),      k = 1 .. M-1

and weights

    gamma_0 = e^{delta_0} / 2
    gamma_k = [1 + i (k pi / M)(1 + cot^2(k pi / M)) - i cot(k pi / M)]
              * e^{delta_k}

the inversion reads ``f(t) ~= (2 / (5 t)) sum_k Re[gamma_k F(delta_k/t)]``.

Talbot converges spectacularly for transforms analytic in the cut plane
(our Gamma/exponential compositions), but the contour swings into
``Re s < 0`` where transforms of *bounded-support* or atom-carrying
distributions blow up (``exp(-s c)`` grows); Euler is therefore the
default and Talbot serves as an independent cross-check and ablation arm.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["talbot_nodes", "talbot_invert"]

DEFAULT_TERMS = 32


@lru_cache(maxsize=16)
def talbot_nodes(m: int = DEFAULT_TERMS) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(delta, gamma)`` arrays of length ``m`` (scaled by 1/t)."""
    if m < 2 or m > 128:
        raise ValueError(f"Talbot terms must be in [2, 128], got {m}")
    k = np.arange(1, m)
    cot = 1.0 / np.tan(k * np.pi / m)
    delta = np.empty(m, dtype=complex)
    delta[0] = 2.0 * m / 5.0
    delta[1:] = (2.0 * k * np.pi / 5.0) * (cot + 1j)
    gamma = np.empty(m, dtype=complex)
    gamma[0] = 0.5 * np.exp(delta[0])
    gamma[1:] = (1.0 + 1j * (k * np.pi / m) * (1.0 + cot**2) - 1j * cot) * np.exp(
        delta[1:]
    )
    return delta, gamma


def talbot_invert(transform, t, *, terms: int = DEFAULT_TERMS, _rowwise: bool = False):
    """Invert ``transform`` at positive times ``t`` via fixed Talbot.

    ``_rowwise`` sums row by row, as in :func:`~repro.laplace.euler.euler_invert`.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).astype(float)
    if np.any(t_flat <= 0.0):
        raise ValueError("Talbot inversion requires strictly positive times")
    delta, gamma = talbot_nodes(terms)
    s = delta[np.newaxis, :] / t_flat[:, np.newaxis]
    vals = np.asarray(transform(s), dtype=complex)
    sums = np.real(np.array([row @ gamma for row in vals]) if _rowwise else vals @ gamma)
    out = (2.0 / (5.0 * t_flat)) * sums
    if scalar:
        return float(out[0])
    return out.reshape(t_arr.shape)
