"""Property-based tests (hypothesis) on core invariants.

These sweep randomised parameter space for the algebraic identities the
model relies on: transform normalisation, moment identities, engine
agreement, queueing laws, cache behaviour and ring placement.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Degenerate,
    Exponential,
    Gamma,
    Hyperexponential,
    Mixture,
    PoissonCompound,
    ZeroInflated,
    convolve,
    grid_of,
)
from repro.queueing import (
    FiniteSourceQueue,
    MG1KQueue,
    MG1Queue,
    MM1KQueue,
    MM1Queue,
)
from repro.simulator import StampLru

# Bounded, well-conditioned parameter ranges (latencies in seconds).
rates = st.floats(min_value=5.0, max_value=5000.0)
shapes = st.floats(min_value=0.3, max_value=30.0)
probs = st.floats(min_value=0.0, max_value=1.0)
small_rates = st.floats(min_value=0.0, max_value=4.0)


def gammas():
    return st.builds(Gamma, shapes, rates)


def leaf_distributions():
    return st.one_of(
        gammas(),
        st.builds(Exponential, rates),
        st.builds(Degenerate, st.floats(min_value=0.0, max_value=0.2)),
    )


def composites():
    leaf = leaf_distributions()
    return st.one_of(
        leaf,
        st.builds(ZeroInflated, gammas(), probs),
        st.builds(PoissonCompound, gammas(), small_rates),
        st.builds(lambda a, b: convolve(a, b), leaf, leaf),
    )


class TestTransformInvariants:
    @given(composites())
    @settings(max_examples=80, deadline=None)
    def test_laplace_at_zero_is_one(self, dist):
        assert np.real(dist.laplace(np.array([0.0]))[0]) == pytest.approx(1.0)

    @given(composites(), st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=80, deadline=None)
    def test_laplace_bounded_by_one_on_positive_axis(self, dist, s):
        val = np.real(dist.laplace(np.array([s]))[0])
        assert -1e-9 <= val <= 1.0 + 1e-9

    @given(composites())
    @settings(max_examples=60, deadline=None)
    def test_laplace_decreasing_on_positive_axis(self, dist):
        s = np.array([1.0, 10.0, 100.0])
        vals = np.real(dist.laplace(s))
        assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12

    @given(composites())
    @settings(max_examples=60, deadline=None)
    def test_derivative_at_zero_is_minus_mean(self, dist):
        # Step scaled against the *second* moment: the finite-difference
        # bias is h * E[X^2] / 2, which for strongly zero-inflated laws
        # dwarfs a mean-scaled step.
        h = 2e-4 * max(dist.mean, 1e-9) / max(dist.second_moment, 1e-12)
        l0, l1 = np.real(dist.laplace(np.array([0.0, h])))
        numeric_mean = (l0 - l1) / h
        assert numeric_mean == pytest.approx(dist.mean, rel=2e-3, abs=1e-9)

    @given(composites())
    @settings(max_examples=60, deadline=None)
    def test_variance_non_negative(self, dist):
        assert dist.variance >= 0.0

    @given(st.builds(ZeroInflated, gammas(), probs))
    @settings(max_examples=60, deadline=None)
    def test_atom_plus_continuous_mass(self, dist):
        """CDF at a huge time reaches ~1, at 0 equals the atom."""
        assert dist.cdf(0.0) == pytest.approx(dist.atom_at_zero)
        # Span the *base* law's scale: the mixture mean shrinks with the
        # miss ratio but the continuous part's tail does not.
        far = dist.base.mean * 100.0 + dist.mean * 10.0
        assert dist.cdf(far) == pytest.approx(1.0, abs=1e-5)


class TestInversionMonotonicity:
    """``invert_cdf`` must return a non-decreasing function of ``t``.

    Truncated-series inversion oscillates (Gibbs ripple near atoms,
    cancellation noise in the far tail), so without the running-max
    repair a sampled CDF could locally *decrease* -- which downstream
    root-finding (latency quantiles) and SLA-series consumers silently
    mis-handle.  The repair must hold for unsorted evaluation points.
    """

    # Exercises the repair itself (gaver moves ~4e-3 of a Degenerate's mass).
    @pytest.mark.filterwarnings("ignore::repro.laplace.inversion.RepairWarning")
    @given(
        composites(),
        st.lists(
            st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=40
        ),
        st.sampled_from(["euler", "talbot", "gaver"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cdf_non_decreasing_in_t(self, dist, ts, method):
        from repro.laplace import invert_cdf

        t = np.asarray(ts, dtype=float)
        out = invert_cdf(dist, t, method=method)
        order = np.argsort(t, kind="stable")
        sorted_vals = out[order]
        assert np.all(np.diff(sorted_vals) >= 0.0)
        assert np.all((out >= 0.0) & (out <= 1.0 + 1e-12))

    @given(composites())
    @settings(max_examples=30, deadline=None)
    def test_scalar_matches_array_evaluation(self, dist):
        from repro.laplace import invert_cdf

        # The running max must not leak across unrelated evaluations:
        # a scalar call sees a one-point "array" and stays untouched.
        t = dist.mean if dist.mean > 0 else 0.01
        scalar = invert_cdf(dist, t)
        assert 0.0 <= scalar <= 1.0 + 1e-12


class TestMomentIdentities:
    @given(leaf_distributions(), leaf_distributions())
    @settings(max_examples=60, deadline=None)
    def test_convolution_moments(self, a, b):
        c = convolve(a, b)
        assert c.mean == pytest.approx(a.mean + b.mean, rel=1e-12, abs=1e-15)
        assert c.variance == pytest.approx(
            a.variance + b.variance, rel=1e-9, abs=1e-15
        )

    @given(gammas(), small_rates)
    @settings(max_examples=60, deadline=None)
    def test_compound_poisson_moments(self, base, rate):
        pc = PoissonCompound(base, rate)
        assert pc.mean == pytest.approx(rate * base.mean)
        assert pc.variance == pytest.approx(rate * base.second_moment, rel=1e-9)

    @given(gammas(), probs)
    @settings(max_examples=60, deadline=None)
    def test_zero_inflated_moments(self, base, m):
        z = ZeroInflated(base, m)
        assert z.mean == pytest.approx(m * base.mean)
        assert z.second_moment == pytest.approx(m * base.second_moment)


class TestEngineAgreementProperty:
    @given(composites(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_transform_cdf(self, dist, k):
        mean = dist.mean
        assume(mean > 1e-5)
        t = k * mean / 2.0
        dt = max(mean / 400.0, 1e-7)
        grid = grid_of(dist, dt, 4096)
        assume(grid.tail_mass < 0.02)
        # CDF comparison at (or next to) a Dirac atom is ill-posed: the
        # numerical inversion reconstructs the jump's midpoint while the
        # lattice quantises it into a bin.  Only compare where the local
        # mass around t is small.
        # ... and Euler inversion rings (Gibbs) in the vicinity of any
        # steep rise, so also require the whole law to be atom-free at
        # this resolution.
        assume(float(grid.probs.max()) < 0.04)
        idx = int(round(t / dt))
        lo, hi = max(idx - 3, 0), min(idx + 4, grid.n)
        assume(float(grid.probs[lo:hi].sum()) < 0.05)
        analytic = float(dist.cdf(t))
        lattice = float(grid.cdf(t))
        assert lattice == pytest.approx(analytic, abs=0.03)


class TestQueueingProperties:
    @given(st.floats(min_value=1.0, max_value=40.0), gammas())
    @settings(max_examples=60, deadline=None)
    def test_pk_waiting_atom(self, lam, service):
        assume(lam * service.mean < 0.95)
        q = MG1Queue(lam, service)
        w = q.waiting_time()
        assert w.atom_at_zero == pytest.approx(1.0 - q.utilization)
        assert w.mean >= 0.0

    @given(
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=1.0, max_value=200.0),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=80, deadline=None)
    def test_mm1k_state_law(self, lam, mu, k):
        q = MM1KQueue(lam, mu, k)
        p = q.state_probabilities()
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)
        assert 0.0 <= q.blocking_probability < 1.0
        assert q.mean_number_in_system <= k + 1e-9

    @given(
        st.floats(min_value=1.0, max_value=60.0),
        gammas(),
        st.floats(min_value=1.05, max_value=2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_waiting_grows_with_load(self, lam, service, factor):
        assume(lam * factor * service.mean < 0.95)
        lo = MG1Queue(lam, service)
        hi = MG1Queue(lam * factor, service)
        assert hi.mean_waiting_time >= lo.mean_waiting_time


def _assert_proper_transform(dist, expected_mean: float) -> None:
    """A queueing transform must be a proper LST of a non-negative law:
    ``L(0) = 1``, monotone decreasing along the positive real axis, and
    ``-L'(0)`` must reproduce the queue's closed-form mean (for M/G/1,
    the Pollaczek--Khinchine mean).

    Evaluation is at ``0+``, not 0: the P--K transform is a 0/0 at the
    origin (removable singularity), so the normalisation property is a
    limit from the right.
    """
    s0 = 1e-7 / max(expected_mean, 1e-3)
    s_grid = np.array([s0, 0.5, 2.0, 10.0, 50.0, 250.0])
    vals = np.real(dist.laplace(s_grid))
    assert vals[0] == pytest.approx(1.0, abs=2e-5)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals >= -1e-9)
    # Numeric -L'(0+).  The P--K transform carries up to ~1e-6 absolute
    # noise near the origin (0/0 cancellation in float64), so the step
    # keeps 1 - L(h) three decades above that noise, and the known
    # first-order bias h E[X^2]/2 is added back exactly from the
    # distribution's closed-form second moment.
    # The step shrinks for strongly skewed laws (second-moment cap)
    # where the higher-order truncation would otherwise dominate.
    m = max(expected_mean, 1e-9)
    h = min(1e-3 / m, 0.05 * m / max(dist.second_moment, 1e-12))
    l0, lh = np.real(dist.laplace(np.array([s0, s0 + h])))
    est = (l0 - lh) / h + h * dist.second_moment / 2.0
    assert est == pytest.approx(expected_mean, rel=5e-3, abs=1e-9)


class TestQueueingTransformProperties:
    """Satellite sweep over (rate, service moments): every queueing
    transform the backend model composes is a proper LST whose
    derivative at zero matches the closed-form mean."""

    @given(st.floats(min_value=1.0, max_value=60.0), gammas())
    @settings(max_examples=50, deadline=None)
    def test_mg1_waiting_transform(self, lam, service):
        assume(lam * service.mean < 0.9)
        q = MG1Queue(lam, service)
        _assert_proper_transform(q.waiting_time(), q.mean_waiting_time)

    @given(st.floats(min_value=1.0, max_value=60.0), gammas())
    @settings(max_examples=40, deadline=None)
    def test_mg1_sojourn_transform(self, lam, service):
        assume(lam * service.mean < 0.9)
        q = MG1Queue(lam, service)
        _assert_proper_transform(q.sojourn_time(), q.mean_sojourn_time)

    @given(
        st.floats(min_value=0.05, max_value=1.5),
        st.floats(min_value=5.0, max_value=500.0),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_mm1k_sojourn_transform(self, u, mu, k):
        q = MM1KQueue(u * mu, mu, k)
        _assert_proper_transform(q.sojourn_time(), q.mean_sojourn_time)

    @given(
        st.floats(min_value=0.05, max_value=1.3),
        gammas(),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_mg1k_sojourn_transform(self, u, service, k):
        q = MG1KQueue(u / service.mean, service, k)
        sojourn = q.sojourn_time()
        # The M/G/1/K sojourn is a residual-service approximation: its
        # transform's exact mean is the mixture's own closed form, which
        # agrees with the Little's-law mean only approximately.
        _assert_proper_transform(sojourn, sojourn.mean)
        assert sojourn.mean == pytest.approx(q.mean_sojourn_time, rel=0.25, abs=1e-6)

    @given(
        st.floats(min_value=0.05, max_value=0.7),
        st.floats(min_value=5.0, max_value=500.0),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_finite_source_sojourn_transform(self, u, mu, n):
        q = FiniteSourceQueue.from_offered_rate(u * mu, mu, n)
        _assert_proper_transform(q.sojourn_time(), q.mean_sojourn_time)

    @given(
        st.floats(min_value=0.05, max_value=0.8),
        st.floats(min_value=5.0, max_value=500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_mm1k_sojourn_converges_to_mm1(self, u, mu):
        """As K grows, the truncated queue's sojourn law approaches the
        open M/M/1 law (blocking mass ~ u^K vanishes geometrically)."""
        lam = u * mu
        open_q = MM1Queue(lam, mu)
        s = np.array([0.5, 5.0, 50.0])
        target = np.real(open_q.sojourn_time().laplace(s))

        def distance(k: int) -> float:
            trunc = MM1KQueue(lam, mu, k)
            vals = np.real(trunc.sojourn_time().laplace(s))
            return float(np.max(np.abs(vals - target)))

        assert distance(96) <= 1e-6
        assert distance(32) <= distance(8) + 1e-12
        big = MM1KQueue(lam, mu, 96)
        assert big.mean_sojourn_time == pytest.approx(
            open_q.mean_sojourn_time, rel=1e-6
        )


class TestCacheProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
        st.lists(st.integers(1, 40), min_size=31, max_size=31),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, accesses, sizes, capacity):
        cache = StampLru(capacity, sizes, len(sizes))
        for key in accesses:
            cache.access(key)
            assert cache.used_bytes <= capacity
        assert cache.hits + cache.misses == len(accesses)

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=100)
    )
    @settings(max_examples=40, deadline=None)
    def test_infinite_cache_misses_equal_distinct_keys(self, keys):
        cache = StampLru(10**9, 1, 11)
        for key in keys:
            cache.access(key)
        assert cache.misses == len(set(keys))


class TestRingProperties:
    @given(
        st.integers(min_value=4, max_value=64),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_placement_invariants(self, n_partitions, n_devices, replicas, seed):
        from repro.simulator import HashRing

        assume(replicas <= n_devices)
        ring = HashRing(n_partitions, n_devices, replicas, np.random.default_rng(seed))
        assert ring.assignment.shape == (n_partitions, replicas)
        for row in ring.assignment:
            assert len(set(row.tolist())) == replicas
        # Balance: each device's share within a factor of the ideal.
        counts = np.bincount(ring.assignment.ravel(), minlength=n_devices)
        # Least-loaded placement keeps every device within one partition
        # of the ideal share (Swift's ring-builder guarantee).
        assert counts.max() - counts.min() <= 1


class TestTailDistributionProperties:
    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=1e-3, max_value=0.1),
    )
    @settings(max_examples=25, deadline=None)
    def test_weibull_transform_normalised(self, shape, scale):
        from repro.distributions import Weibull

        w = Weibull(shape, scale)
        val = np.real(w.laplace(np.array([0.0]))[0])
        assert val == pytest.approx(1.0, abs=1e-6)

    @given(
        st.floats(min_value=2.1, max_value=6.0),
        st.floats(min_value=1e-3, max_value=0.1),
    )
    @settings(max_examples=25, deadline=None)
    def test_pareto_moments_vs_samples(self, alpha, sigma):
        from repro.distributions import Pareto

        p = Pareto(alpha, sigma)
        rng = np.random.default_rng(0)
        samples = p.sample(rng, size=40_000)
        # Heavy tails need loose tolerance; the identity must still hold.
        assert samples.mean() == pytest.approx(p.mean, rel=0.25)

    @given(
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=20.0, max_value=2000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_shifted_exponential_cdf_floor(self, floor, rate):
        from repro.distributions import ShiftedExponential

        se = ShiftedExponential(floor, rate)
        assert se.cdf(floor * 0.99 - 1e-12) == 0.0
        assert se.cdf(floor + 5.0 / rate) > 0.99


class TestCheProperties:
    @given(
        st.integers(min_value=10, max_value=500),
        st.floats(min_value=0.0, max_value=1.5),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_hit_probabilities_in_unit_interval(self, n, zipf_s, capacity):
        from repro.calibration import lru_hit_probabilities

        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks**-zipf_s
        hits = lru_hit_probabilities(weights, np.ones(n), float(capacity))
        assert np.all((hits >= 0.0) & (hits <= 1.0 + 1e-12))
        # More popular items are at least as resident.
        order = np.argsort(weights)[::-1]
        sorted_hits = hits[order]
        assert np.all(np.diff(sorted_hits) <= 1e-9)

    @given(
        st.integers(min_value=20, max_value=300),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_miss_ratio_monotone_in_capacity(self, n, cap_small, extra):
        from repro.calibration import lru_miss_ratio

        ranks = np.arange(1, n + 1, dtype=float)
        weights = 1.0 / ranks
        sizes = np.ones(n)
        small = lru_miss_ratio(weights, sizes, float(cap_small))
        big = lru_miss_ratio(weights, sizes, float(cap_small + extra))
        assert big <= small + 1e-9
