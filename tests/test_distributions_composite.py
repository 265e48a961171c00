"""Unit tests for composite distributions (the model's combinators)."""

import numpy as np
import pytest

from repro.distributions import (
    Convolution,
    Degenerate,
    DistributionError,
    Empirical,
    Exponential,
    Gamma,
    GridDistribution,
    GridPMF,
    Mixture,
    PoissonCompound,
    Scaled,
    Shifted,
    TransformDistribution,
    ZeroInflated,
    convolve,
    evalcache,
    zero_inflate,
)
from repro.model import LatencyPercentileModel
from tests.test_quantile_search import _whatif_params


class TestZeroInflated:
    def test_paper_equation(self):
        """index(t) = index_d(t) m + delta(t)(1-m) -> transform identity."""
        base = Gamma(2.0, 100.0)
        z = ZeroInflated(base, 0.3)
        s = np.array([5.0, 50.0 + 3.0j])
        assert np.allclose(z.laplace(s), 0.3 * base.laplace(s) + 0.7)

    def test_moments(self):
        base = Exponential(10.0)
        z = ZeroInflated(base, 0.25)
        assert z.mean == pytest.approx(0.25 * 0.1)
        assert z.second_moment == pytest.approx(0.25 * 0.02)

    def test_atom(self):
        z = ZeroInflated(Gamma(1.0, 1.0), 0.4)
        assert z.atom_at_zero == pytest.approx(0.6)

    def test_cdf_jumps_at_zero(self):
        z = ZeroInflated(Exponential(1.0), 0.5)
        assert z.cdf(-1e-9) == 0.0
        assert z.cdf(0.0) == pytest.approx(0.5)

    def test_helper_simplifies_edges(self):
        base = Gamma(1.0, 1.0)
        assert isinstance(zero_inflate(base, 0.0), Degenerate)
        assert zero_inflate(base, 1.0) is base
        assert isinstance(zero_inflate(base, 0.5), ZeroInflated)

    def test_sampling_hit_fraction(self, rng):
        z = ZeroInflated(Exponential(1.0), 0.2)
        s = z.sample(rng, size=20_000)
        assert (s == 0.0).mean() == pytest.approx(0.8, abs=0.02)


class TestConvolution:
    def test_mean_additivity(self):
        c = convolve(Exponential(10.0), Gamma(2.0, 40.0), Degenerate(0.01))
        assert c.mean == pytest.approx(0.1 + 0.05 + 0.01)

    def test_variance_additivity(self):
        a, b = Exponential(10.0), Gamma(2.0, 40.0)
        c = convolve(a, b)
        assert c.variance == pytest.approx(a.variance + b.variance)

    def test_transform_is_product(self):
        a, b = Exponential(3.0), Exponential(7.0)
        c = convolve(a, b)
        s = np.array([1.0 + 1.0j, 10.0])
        assert np.allclose(c.laplace(s), a.laplace(s) * b.laplace(s))

    def test_flattens_nested(self):
        inner = convolve(Exponential(1.0), Exponential(2.0))
        outer = convolve(inner, Exponential(3.0))
        assert isinstance(outer, Convolution)
        assert len(outer.components) == 3

    def test_drops_zero_point_masses(self):
        e = Exponential(1.0)
        assert convolve(e, Degenerate(0.0)) is e

    def test_exponential_sum_is_erlang(self, rng):
        c = convolve(Exponential(50.0), Exponential(50.0))
        g = Gamma(2.0, 50.0)
        t = np.linspace(0.001, 0.2, 7)
        assert np.allclose(c.cdf(t), g.cdf(t), atol=1e-6)

    def test_cdf_against_monte_carlo(self, rng):
        c = convolve(Gamma(2.0, 100.0), Exponential(30.0), Degenerate(0.005))
        samples = c.sample(rng, size=60_000)
        for t in (0.02, 0.06, 0.15):
            assert c.cdf(t) == pytest.approx((samples <= t).mean(), abs=0.01)


class TestPoissonCompound:
    def test_transform_identity(self):
        """exp(p (L(s) - 1)) -- the paper's extra-data-read sum."""
        base = Gamma(2.0, 200.0)
        pc = PoissonCompound(base, 1.7)
        s = np.array([10.0, 40.0 + 4.0j])
        assert np.allclose(pc.laplace(s), np.exp(1.7 * (base.laplace(s) - 1.0)))

    def test_mean(self):
        pc = PoissonCompound(Exponential(10.0), 2.0)
        assert pc.mean == pytest.approx(0.2)

    def test_variance_formula(self):
        base = Exponential(5.0)
        pc = PoissonCompound(base, 3.0)
        # Var = rate * E[X^2]
        assert pc.variance == pytest.approx(3.0 * base.second_moment)

    def test_atom_at_zero(self):
        pc = PoissonCompound(Gamma(1.0, 1.0), 0.8)
        assert pc.atom_at_zero == pytest.approx(np.exp(-0.8))

    def test_atom_with_inflated_base(self):
        pc = PoissonCompound(ZeroInflated(Gamma(1.0, 1.0), 0.3), 2.0)
        assert pc.atom_at_zero == pytest.approx(np.exp(2.0 * (0.7 - 1.0)))

    def test_zero_rate_is_point_mass(self):
        pc = PoissonCompound(Exponential(1.0), 0.0)
        assert pc.mean == 0.0
        assert pc.atom_at_zero == 1.0

    def test_sampling_matches_mean(self, rng):
        pc = PoissonCompound(Exponential(10.0), 1.5)
        s = pc.sample(rng, size=30_000)
        assert s.mean() == pytest.approx(0.15, rel=0.05)

    def test_matches_paper_series(self):
        """The closed form equals the truncated series sum_j p^j e^-p/j! L^j."""
        base = Gamma(2.0, 100.0)
        p = 1.2
        pc = PoissonCompound(base, p)
        s = np.array([30.0])
        lb = base.laplace(s)
        from math import factorial

        series = sum(
            (p**j) * np.exp(-p) / factorial(j) * lb**j for j in range(40)
        )
        assert np.allclose(pc.laplace(s), series)


class TestMixture:
    def test_rate_weighted_is_equation_3(self):
        a, b = Exponential(10.0), Exponential(20.0)
        m = Mixture.rate_weighted([a, b], [30.0, 10.0])
        t = 0.1
        expected = (30 * a.cdf(t) + 10 * b.cdf(t)) / 40
        assert m.cdf(t) == pytest.approx(expected)

    def test_moments(self):
        m = Mixture([Degenerate(1.0), Degenerate(3.0)], [0.5, 0.5])
        assert m.mean == pytest.approx(2.0)
        assert m.second_moment == pytest.approx(5.0)

    def test_weight_validation(self):
        with pytest.raises(DistributionError):
            Mixture([Exponential(1.0)], [0.9])

    def test_sampling(self, rng):
        m = Mixture([Degenerate(1.0), Degenerate(2.0)], [0.25, 0.75])
        s = m.sample(rng, size=20_000)
        assert (s == 2.0).mean() == pytest.approx(0.75, abs=0.02)


def _hypoexponential(rates) -> Convolution:
    return Convolution([Exponential(r) for r in rates])


def _hypoexponential_cdf(rates, t):
    """Closed form for distinct rates: ``1 - sum_i c_i exp(-rate_i t)``."""
    out = np.ones_like(t)
    for i, rate in enumerate(rates):
        c = np.prod([r / (r - rate) for j, r in enumerate(rates) if j != i])
        out = out - c * np.exp(-rate * t)
    return out


class TestMixtureInversion:
    """A mixture of transform-defined laws inverts once as a whole; one
    with a component that has its own cdf sums the components' cdfs."""

    TIMES = np.array([0.01, 0.05, 0.1, 0.3])

    def test_sixteen_device_model_inverts_once(self):
        model = LatencyPercentileModel(_whatif_params(16, seed=3))
        assert len(model.system_latency.components) == 16
        before = evalcache.stats()["inversion_calls"]
        model.sla_percentile(0.05)
        assert evalcache.stats()["inversion_calls"] - before == 1

    @pytest.mark.parametrize(
        "own_cdf",
        [
            Gamma(2.0, 40.0),
            GridDistribution(GridPMF(0.002, np.array([0.1, 0.3, 0.4, 0.2]))),
        ],
        ids=["gamma", "grid"],
    )
    def test_component_with_own_cdf_sums_components(self, own_cdf):
        components = [_hypoexponential([30.0, 80.0]), own_cdf, Exponential(50.0)]
        weights = np.array([0.5, 0.3, 0.2])
        mix = Mixture(components, weights)
        want = np.zeros_like(self.TIMES)
        for w, c in zip(mix.weights, components):
            want = want + w * c.cdf(self.TIMES)
        assert mix.cdf(self.TIMES).tolist() == want.tolist()

    def test_single_inversion_matches_exact_mixture(self):
        """On 20 seeded mixtures of 16 hypoexponential laws (2-4 stages,
        distinct rates), one inversion of the mixture stays within 5e-9
        of the closed form."""
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            laws = [
                rng.uniform(20.0, 200.0)
                * np.cumprod(rng.uniform(1.3, 3.0, size=int(rng.integers(2, 5))))
                for _ in range(16)
            ]
            weights = rng.dirichlet(np.ones(16))
            mix = Mixture([_hypoexponential(r) for r in laws], weights)
            exact = sum(
                w * _hypoexponential_cdf(r, self.TIMES) for w, r in zip(weights, laws)
            )
            worst = max(worst, float(np.max(np.abs(mix.cdf(self.TIMES) - exact))))
        assert worst <= 5e-9


class TestScaledShifted:
    def test_scaled_transform(self):
        base = Exponential(10.0)
        sc = Scaled(base, 2.0)
        assert sc.mean == pytest.approx(0.2)
        s = np.array([3.0])
        assert np.allclose(sc.laplace(s), base.laplace(2.0 * s))

    def test_scaled_cdf(self):
        sc = Scaled(Exponential(1.0), 4.0)
        assert sc.cdf(4.0) == pytest.approx(1 - np.exp(-1.0))

    def test_shifted(self):
        sh = Shifted(Exponential(10.0), 0.05)
        assert sh.mean == pytest.approx(0.15)
        assert sh.cdf(0.04) == 0.0
        assert sh.atom_at_zero == 0.0

    def test_shifted_second_moment(self, rng):
        sh = Shifted(Exponential(5.0), 0.1)
        samples = sh.sample(rng, size=50_000)
        assert sh.second_moment == pytest.approx((samples**2).mean(), rel=0.03)


class TestTransformDistribution:
    def test_wraps_known_transform(self):
        base = Gamma(2.0, 50.0)
        td = TransformDistribution(base.laplace, base.mean, base.second_moment)
        t = np.array([0.01, 0.05, 0.1])
        assert np.allclose(td.cdf(t), base.cdf(t), atol=1e-6)

    def test_numeric_second_moment(self):
        base = Exponential(20.0)
        td = TransformDistribution(base.laplace, base.mean)
        assert td.second_moment == pytest.approx(base.second_moment, rel=1e-2)


class TestEmpirical:
    def test_moments(self):
        e = Empirical([1.0, 2.0, 3.0])
        assert e.mean == pytest.approx(2.0)
        assert e.second_moment == pytest.approx(14.0 / 3.0)

    def test_cdf_step_function(self):
        e = Empirical([1.0, 2.0, 2.0, 4.0])
        assert e.cdf(0.5) == 0.0
        assert e.cdf(2.0) == pytest.approx(0.75)
        assert e.cdf(4.0) == 1.0

    def test_transform_is_exact_for_small_samples(self):
        e = Empirical([0.5, 1.5])
        s = np.array([1.0, 2.0 + 1.0j])
        expected = 0.5 * (np.exp(-s * 0.5) + np.exp(-s * 1.5))
        assert np.allclose(e.laplace(s), expected)

    def test_zero_atom(self):
        e = Empirical([0.0, 0.0, 1.0, 2.0])
        assert e.atom_at_zero == pytest.approx(0.5)

    def test_quantile(self):
        e = Empirical(np.arange(1, 101, dtype=float))
        assert e.quantile(0.5) == pytest.approx(50.5)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(DistributionError):
            Empirical([])
        with pytest.raises(DistributionError):
            Empirical([-1.0, 2.0])

    def test_subsampling_kicks_in(self):
        big = Empirical(np.linspace(0.0, 1.0, 10_000))
        pts = big._transform_points()
        assert pts.size == Empirical.MAX_TRANSFORM_SAMPLES
        # Transform still close to the uniform's.
        from repro.distributions import Uniform

        u = Uniform(0.0, 1.0)
        s = np.array([2.0])
        assert np.allclose(big.laplace(s), u.laplace(s), atol=1e-3)
