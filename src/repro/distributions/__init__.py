"""Latency-distribution toolkit.

Two composition engines over one class hierarchy:

* the **transform engine** -- every distribution exposes ``laplace(s)``;
  composites multiply/mix transforms and CDFs come from numerical
  inversion (:mod:`repro.laplace`);
* the **grid engine** (:mod:`repro.distributions.grid`) -- lattice pmfs
  composed with FFT convolutions, independent of the transform path and
  cross-checked against it in the tests.

Plus the Section IV fitting pipeline (:mod:`repro.distributions.fitting`).
"""

from repro.distributions.base import (
    Distribution,
    DistributionError,
    as_distribution,
)
from repro.distributions.analytic import (
    Degenerate,
    Erlang,
    Exponential,
    Gamma,
    Hyperexponential,
    Lognormal,
    Normal,
    Uniform,
)
from repro.distributions.composite import (
    Convolution,
    Empirical,
    Mixture,
    PoissonCompound,
    Scaled,
    Shifted,
    TransformDistribution,
    ZeroInflated,
    convolve,
    zero_inflate,
)
from repro.distributions.grid import GridDistribution, GridPMF, LatticeError, grid_of
from repro.distributions.orderstats import OrderStatistic, order_statistic
from repro.distributions.tails import Pareto, ShiftedExponential, Weibull
from repro.distributions.fitting import (
    DEFAULT_FAMILIES,
    FitResult,
    fit_best,
    fit_degenerate,
    fit_exponential,
    fit_gamma,
    fit_lognormal,
    fit_normal,
    ks_statistic,
)

__all__ = [
    "Distribution",
    "DistributionError",
    "as_distribution",
    "Degenerate",
    "Erlang",
    "Exponential",
    "Gamma",
    "Hyperexponential",
    "Lognormal",
    "Normal",
    "Uniform",
    "Convolution",
    "Empirical",
    "Mixture",
    "PoissonCompound",
    "Scaled",
    "Shifted",
    "TransformDistribution",
    "ZeroInflated",
    "convolve",
    "zero_inflate",
    "GridDistribution",
    "GridPMF",
    "LatticeError",
    "grid_of",
    "OrderStatistic",
    "order_statistic",
    "Pareto",
    "ShiftedExponential",
    "Weibull",
    "DEFAULT_FAMILIES",
    "FitResult",
    "fit_best",
    "fit_degenerate",
    "fit_exponential",
    "fit_gamma",
    "fit_lognormal",
    "fit_normal",
    "ks_statistic",
]
