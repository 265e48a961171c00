"""Property tests for the order-statistic combinators.

The redundancy model (docs/REDUNDANCY.md) rests on
:mod:`repro.distributions.orderstats`; order statistics have exact
closed forms, so every claim here is independently provable:

* min/max of iid exponentials against their closed forms, < 1e-8;
* the binomial k-of-n identity against brute-force enumeration, both on
  grid PMFs (exact child CDFs) and for the heterogeneous
  Poisson-binomial recurrence;
* monotonicity in ``k`` (higher order statistics are larger) and in
  ``n`` (more redundancy makes the k-th smallest smaller);
* ``k=1, n=1`` collapsing to the child distribution *exactly* (object
  identity through the factory), the reduction the simulator's
  bit-identity guarantee mirrors;
* children that denote one law evaluated once per batch.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Exponential,
    GridDistribution,
    GridPMF,
    OrderStatistic,
    ZeroInflated,
    order_statistic,
)
from repro.distributions.base import DistributionError
from repro.queueing import MG1Queue

TS = np.linspace(0.0, 5.0, 101)

rates = st.floats(min_value=0.1, max_value=20.0)
orders = st.integers(min_value=1, max_value=5)


def _brute_binomial_tail(k: int, n: int, p: float) -> float:
    return sum(
        math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1)
    )


def _brute_poisson_binomial_tail(ps, k: int) -> float:
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=len(ps)):
        if sum(pattern) >= k:
            prob = 1.0
            for p, hit in zip(ps, pattern):
                prob *= p if hit else (1.0 - p)
            total += prob
    return total


class _Counted(Exponential):
    """An exponential with a given cache token that counts its cdf calls."""

    def __init__(self, rate, token, calls):
        super().__init__(rate)
        self.token = token
        self.calls = calls

    def cache_token(self):
        return self.token

    def cdf(self, t, **kwargs):
        self.calls.append(t)
        return super().cdf(t, **kwargs)


# ----------------------------------------------------------------------
# closed forms (< 1e-8)
# ----------------------------------------------------------------------
class TestClosedForms:
    @given(rate=rates, n=orders)
    @settings(max_examples=40, deadline=None)
    def test_min_of_iid_exponentials_is_exponential(self, rate, n):
        got = np.asarray(order_statistic([Exponential(rate)] * n, 1).cdf(TS))
        want = np.asarray(Exponential(n * rate).cdf(TS))
        assert np.max(np.abs(got - want)) < 1e-8

    @given(rate=rates, n=orders)
    @settings(max_examples=40, deadline=None)
    def test_max_of_iid_exponentials_is_cdf_power(self, rate, n):
        got = np.asarray(order_statistic([Exponential(rate)] * n, n).cdf(TS))
        want = np.asarray(Exponential(rate).cdf(TS)) ** n
        assert np.max(np.abs(got - want)) < 1e-8

    def test_min_of_two_exponentials_mean(self):
        # E[min of 2 iid Exp(3)] = 1/6; the lattice moments must
        # recover the closed form to the lattice's resolution.
        dist = order_statistic([Exponential(3.0)] * 2, 1)
        assert math.isclose(dist.mean, 1.0 / 6.0, rel_tol=1e-4)
        # Second moment of Exp(6): 2/36.
        assert math.isclose(dist.second_moment, 2.0 / 36.0, rel_tol=1e-3)


class TestLatticeClosedForms:
    """On a lattice the order statistics apply the same identities to
    the children's bin-edge CDFs, so the minimum of exponentials is the
    exponential's own lattice up to round-off."""

    DT = 1e-3
    BINS = 4096

    @pytest.mark.parametrize("rate, n", [(3.0, 2), (20.0, 3), (0.5, 5)])
    def test_min_of_iid_exponentials_on_the_lattice(self, rate, n):
        race = order_statistic([Exponential(rate)] * n, 1)
        got = race.to_grid(self.DT, self.BINS)
        want = Exponential(n * rate).to_grid(self.DT, self.BINS)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-12

    def test_min_of_heterogeneous_exponentials_on_the_lattice(self):
        rates = (1.0, 4.0, 9.0)
        got = OrderStatistic([Exponential(r) for r in rates], 1).to_grid(
            self.DT, self.BINS
        )
        want = Exponential(sum(rates)).to_grid(self.DT, self.BINS)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-12

    @pytest.mark.parametrize(
        "queues",
        [
            [(20.0, 40.0)] * 2,
            [(20.0, 40.0), (50.0, 60.0)],
            [(36.0, 40.0), (10.0, 40.0), (30.0, 35.0)],
        ],
    )
    def test_min_of_mm1_sojourns_on_the_lattice(self, queues):
        """An M/M/1 sojourn is Exp(mu - lambda), so a first-wins race
        over M/M/1 replicas is Exp(sum(mu - lambda)).  The replicas go
        through the P--K wait lattice and its convolution with the
        service, the whole path of a redundant read's race."""
        races = [MG1Queue(lam, Exponential(mu)).sojourn_time() for lam, mu in queues]
        rate = sum(mu - lam for lam, mu in queues)
        race = OrderStatistic(races, 1)
        dt = 12.0 / rate / self.BINS
        got = race.to_grid(dt, self.BINS)
        exact = -np.expm1(-rate * (np.arange(self.BINS) + 0.5) * dt)
        assert np.max(np.abs(got._cumulative - exact)) < 2e-6
        assert math.isclose(race.mean, 1.0 / rate, rel_tol=1e-4)

    def test_moments_come_from_the_lattice(self, monkeypatch):
        """No CDF evaluation (hence no inversion) behind the moments."""
        dist = order_statistic([Exponential(3.0)] * 2, 1)
        monkeypatch.setattr(
            OrderStatistic,
            "cdf",
            lambda *a, **k: pytest.fail("moments evaluated the cdf"),
        )
        assert math.isclose(dist.mean, 1.0 / 6.0, rel_tol=1e-5)


# ----------------------------------------------------------------------
# binomial identity vs brute force
# ----------------------------------------------------------------------
grid_pmfs = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8
).filter(lambda ws: sum(ws) > 1e-6)


class TestBinomialIdentity:
    @given(weights=grid_pmfs, n=st.integers(min_value=1, max_value=4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kofn_matches_enumeration_on_grid_pmfs(self, weights, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        probs = np.asarray(weights) / sum(weights)
        child = GridDistribution(GridPMF(0.01, probs))
        dist = order_statistic([child] * n, k)
        for t in (0.0, 0.005, 0.015, 0.02 * len(weights), 1.0):
            p = float(np.asarray(child.cdf(t)))
            want = _brute_binomial_tail(k, n, p)
            assert math.isclose(
                float(np.asarray(dist.cdf(t))), want, rel_tol=0.0, abs_tol=1e-8
            )

    @given(
        rs=st.lists(rates, min_size=2, max_size=4),
        t=st.floats(min_value=0.0, max_value=4.0),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_poisson_binomial_matches_enumeration(self, rs, t, data):
        k = data.draw(st.integers(min_value=1, max_value=len(rs)))
        components = [Exponential(r) for r in rs]
        dist = OrderStatistic(components, k)
        ps = [float(np.asarray(c.cdf(t))) for c in components]
        want = _brute_poisson_binomial_tail(ps, k)
        assert math.isclose(
            float(np.asarray(dist.cdf(t))), want, rel_tol=0.0, abs_tol=1e-8
        )

    def test_heterogeneous_reduces_to_iid_when_components_equal(self):
        comps = [Exponential(2.5) for _ in range(3)]
        got = np.asarray(OrderStatistic(comps, 2).cdf(TS))
        ps = np.asarray(comps[0].cdf(TS))
        want = np.array([_brute_binomial_tail(2, 3, p) for p in ps])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_atom_at_zero_follows_the_same_combinatorics(self):
        child = ZeroInflated(Exponential(1.0), 0.7)  # atom 0.3
        for n in (1, 2, 3):
            for k in range(1, n + 1):
                got = order_statistic([child] * n, k).atom_at_zero
                want = _brute_binomial_tail(k, n, child.atom_at_zero)
                assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12)


# ----------------------------------------------------------------------
# monotonicity
# ----------------------------------------------------------------------
class TestMonotonicity:
    @given(rate=rates, n=st.integers(min_value=2, max_value=5), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cdf_decreases_in_k(self, rate, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        child = Exponential(rate)
        lower = np.asarray(order_statistic([child] * n, k).cdf(TS))
        higher = np.asarray(order_statistic([child] * n, k + 1).cdf(TS))
        assert np.all(lower >= higher - 1e-12)

    @given(rate=rates, n=orders, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cdf_increases_in_n(self, rate, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        child = Exponential(rate)
        fewer = np.asarray(order_statistic([child] * n, k).cdf(TS))
        more = np.asarray(order_statistic([child] * (n + 1), k).cdf(TS))
        assert np.all(more >= fewer - 1e-12)


# ----------------------------------------------------------------------
# exact collapses & factory routing
# ----------------------------------------------------------------------
class TestFactory:
    def test_single_component_collapses_to_child_exactly(self):
        child = Exponential(4.0)
        assert order_statistic([child], 1) is child

    def test_kofn_with_k1_n1_is_the_child_law(self):
        child = Exponential(4.0)
        got = np.asarray(OrderStatistic([child], 1).cdf(TS))
        assert np.max(np.abs(got - np.asarray(child.cdf(TS)))) < 1e-12

    def test_equal_tokens_share_one_child_evaluation(self):
        calls = []
        twins = [_Counted(2.0, ("counted", 2.0), calls) for _ in range(2)]
        order_statistic(twins, 1).cdf(TS)
        assert len(calls) == 1

    def test_shared_object_shares_one_child_evaluation(self):
        # Sharing the *object* suffices even for an uncacheable child.
        calls = []
        order_statistic([_Counted(1.0, None, calls)] * 3, 2).cdf(TS)
        assert len(calls) == 1

    def test_heterogeneous_builds_poisson_binomial(self):
        built = order_statistic([Exponential(1.0), Exponential(2.0)], 2)
        assert isinstance(built, OrderStatistic)

    def test_order_out_of_range_rejected(self):
        with pytest.raises(DistributionError):
            order_statistic([Exponential(1.0)], 2)
        with pytest.raises(DistributionError):
            order_statistic([Exponential(1.0)] * 2, 0)
        with pytest.raises(DistributionError):
            OrderStatistic([Exponential(1.0), Exponential(2.0)], 3)

    def test_cache_tokens_distinguish_k_and_n(self):
        child = Exponential(1.0)
        tokens = {
            order_statistic([child] * n, k).cache_token()
            for n in (1, 2, 3)
            for k in range(1, n + 1)
        }
        assert len(tokens) == 6

    def test_no_laplace_transform(self):
        dist = order_statistic([Exponential(1.0)] * 2, 1)
        assert not dist.has_laplace
        with pytest.raises(DistributionError):
            dist.laplace(1.0)


# ----------------------------------------------------------------------
# sampling agrees with the analytic CDF
# ----------------------------------------------------------------------
class TestSampling:
    def test_kofn_samples_match_cdf(self):
        rng = np.random.default_rng(7)
        dist = order_statistic([Exponential(2.0)] * 3, 2)
        draws = dist.sample(rng, size=4000)
        for t in (0.1, 0.3, 0.8):
            emp = float(np.mean(draws <= t))
            assert abs(emp - float(np.asarray(dist.cdf(t)))) < 0.03

    def test_heterogeneous_samples_match_cdf(self):
        rng = np.random.default_rng(11)
        dist = OrderStatistic([Exponential(1.0), Exponential(5.0)], 2)
        draws = dist.sample(rng, size=4000)
        for t in (0.2, 0.6, 1.5):
            emp = float(np.mean(draws <= t))
            assert abs(emp - float(np.asarray(dist.cdf(t)))) < 0.03

    def test_quantile_roundtrip(self):
        dist = order_statistic([Exponential(2.0)] * 3, 1)  # = Exp(6)
        for q in (0.5, 0.9, 0.99):
            t = dist.quantile(q)
            assert math.isclose(float(np.asarray(dist.cdf(t))), q, abs_tol=1e-6)
