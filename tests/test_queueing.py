"""Tests for the queueing substrate against textbook results."""

import numpy as np
import pytest

from repro.distributions import Degenerate, Exponential, Gamma, Pareto
from repro.queueing import (
    FiniteSourceQueue,
    MG1KQueue,
    MG1Queue,
    MM1KQueue,
    MM1Queue,
    QueueingError,
    UnstableQueueError,
)


class TestMM1:
    def test_textbook_means(self):
        q = MM1Queue(30.0, 50.0)
        assert q.utilization == pytest.approx(0.6)
        assert q.mean_sojourn_time == pytest.approx(1.0 / 20.0)
        assert q.mean_waiting_time == pytest.approx(0.6 / 20.0)
        assert q.mean_queue_length == pytest.approx(1.5)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableQueueError):
            MM1Queue(50.0, 50.0)

    def test_waiting_time_law(self):
        q = MM1Queue(30.0, 50.0)
        w = q.waiting_time()
        assert w.atom_at_zero == pytest.approx(0.4)
        t = np.array([0.01, 0.05, 0.2])
        expected = 1.0 - 0.6 * np.exp(-20.0 * t)
        assert np.allclose(w.cdf(t), expected, atol=1e-7)

    def test_queue_length_pmf(self):
        q = MM1Queue(25.0, 50.0)
        pmf = q.queue_length_pmf(100)
        assert pmf[0] == pytest.approx(0.5)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-25)


class TestMG1:
    def test_pk_mean_formula(self):
        service = Gamma(2.0, 100.0)  # mean 0.02, E[B^2]=6e-4
        q = MG1Queue(20.0, service)
        expected_wait = 20.0 * service.second_moment / (2 * (1 - 0.4))
        assert q.mean_waiting_time == pytest.approx(expected_wait)

    def test_reduces_to_mm1(self):
        lam, mu = 35.0, 60.0
        mg1 = MG1Queue(lam, Exponential(mu))
        mm1 = MM1Queue(lam, mu)
        assert mg1.mean_sojourn_time == pytest.approx(mm1.mean_sojourn_time)
        t = np.array([0.01, 0.1, 0.3])
        assert np.allclose(
            mg1.sojourn_time().cdf(t), mm1.sojourn_time().cdf(t), atol=1e-7
        )

    def test_md1_wait_is_half_mm1(self):
        """Classic: deterministic service halves the M/M/1 waiting time."""
        lam = 30.0
        md1 = MG1Queue(lam, Degenerate(0.02))
        mm1 = MG1Queue(lam, Exponential(50.0))
        assert md1.mean_waiting_time == pytest.approx(
            0.5 * mm1.mean_waiting_time
        )

    def test_waiting_atom_is_one_minus_rho(self):
        q = MG1Queue(20.0, Gamma(2.0, 100.0))
        assert q.waiting_time().atom_at_zero == pytest.approx(1.0 - q.utilization)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableQueueError):
            MG1Queue(51.0, Degenerate(0.02))

    def test_needs_transform(self):
        from repro.distributions import Lognormal

        with pytest.raises(QueueingError):
            MG1Queue(1.0, Lognormal(-5.0, 1.0))

    def test_waiting_cdf_monotone(self):
        q = MG1Queue(25.0, Gamma(2.0, 100.0))
        t = np.linspace(0.001, 0.5, 40)
        cdf = np.asarray(q.waiting_time().cdf(t))
        assert np.all(np.diff(cdf) >= -1e-9)

    def test_against_simulation(self, rng):
        """P-K sojourn CDF vs a brute-force single-server FCFS simulation."""
        lam = 25.0
        service = Gamma(2.0, 100.0)
        q = MG1Queue(lam, service)
        n = 60_000
        arrivals = np.cumsum(rng.exponential(1 / lam, n))
        services = service.sample(rng, n)
        start = np.empty(n)
        finish = np.empty(n)
        prev_finish = 0.0
        for i in range(n):
            start[i] = max(arrivals[i], prev_finish)
            prev_finish = start[i] + services[i]
            finish[i] = prev_finish
        sojourn = finish - arrivals
        warm = sojourn[n // 10 :]
        model = q.sojourn_time()
        for t in (0.02, 0.05, 0.1, 0.2):
            assert model.cdf(t) == pytest.approx(
                (warm <= t).mean(), abs=0.015
            )


class TestMM1K:
    def test_state_probabilities_sum(self):
        q = MM1KQueue(60.0, 50.0, 5)
        p = q.state_probabilities()
        assert p.sum() == pytest.approx(1.0)
        assert p.size == 6

    def test_balanced_load_uniform_states(self):
        q = MM1KQueue(50.0, 50.0, 4)
        assert np.allclose(q.state_probabilities(), 0.2)

    def test_blocking_probability_formula(self):
        q = MM1KQueue(40.0, 50.0, 3)
        u = 0.8
        expected = (1 - u) * u**3 / (1 - u**4)
        assert q.blocking_probability == pytest.approx(expected)

    def test_littles_law_consistency(self):
        q = MM1KQueue(70.0, 50.0, 8)
        # Nbar = lambda_eff * T
        assert q.mean_number_in_system == pytest.approx(
            q.effective_arrival_rate * q.mean_sojourn_time
        )

    def test_large_k_approaches_mm1(self):
        lam, mu = 30.0, 50.0
        q = MM1KQueue(lam, mu, 200)
        mm1 = MM1Queue(lam, mu)
        assert q.mean_sojourn_time == pytest.approx(mm1.mean_sojourn_time, rel=1e-6)
        t = np.array([0.02, 0.1])
        assert np.allclose(
            q.sojourn_time().cdf(t), mm1.sojourn_time().cdf(t), atol=1e-6
        )

    def test_closed_form_transform_matches_sum(self):
        q = MM1KQueue(60.0, 50.0, 5)
        # Note: s = lambda - mu = 10 is the removable singularity of the
        # paper's closed form (which is why the sum form is the default);
        # compare away from it.
        s = np.array([1.0 + 2.0j, 11.0, 100.0])
        assert np.allclose(
            q.sojourn_time().laplace(s), q.sojourn_laplace_closed_form(s)
        )

    def test_closed_form_singular_at_lambda_minus_mu(self):
        q = MM1KQueue(60.0, 50.0, 5)
        closed = q.sojourn_laplace_closed_form(np.array([10.0]))
        series = q.sojourn_time().laplace(np.array([10.0]))
        assert np.isnan(closed[0].real)  # the paper's form breaks here
        assert np.isfinite(series[0].real)  # ours does not

    def test_sojourn_mean_uses_effective_rate(self):
        """The paper's formula has a typo (r for r_disk); ours satisfies
        Little's law with the effective rate (see DESIGN.md)."""
        q = MM1KQueue(100.0, 50.0, 4)  # heavily overloaded, finite
        mean_from_transform = q.sojourn_time().mean
        assert q.mean_sojourn_time == pytest.approx(mean_from_transform)

    def test_overloaded_still_finite(self):
        q = MM1KQueue(500.0, 50.0, 4)
        assert q.mean_sojourn_time < 1.0
        assert 0.0 < q.blocking_probability < 1.0

    def test_validation(self):
        with pytest.raises(QueueingError):
            MM1KQueue(1.0, 1.0, 0)


class TestMG1K:
    def test_exponential_service_matches_mm1k(self):
        lam, mu, k = 60.0, 50.0, 5
        gk = MG1KQueue(lam, Exponential(mu), k)
        mk = MM1KQueue(lam, mu, k)
        assert gk.blocking_probability == pytest.approx(
            mk.blocking_probability, abs=2e-4
        )
        t = np.array([0.01, 0.05, 0.15])
        assert np.allclose(
            gk.sojourn_time().cdf(t), mk.sojourn_time().cdf(t), atol=2e-3
        )

    def test_departure_epoch_probs_normalised(self):
        gk = MG1KQueue(40.0, Gamma(2.0, 100.0), 6)
        pi = gk.departure_epoch_probabilities()
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0.0)

    def test_low_variance_service_blocks_less(self):
        """At equal load, lower service variability -> less blocking."""
        lam, k = 55.0, 4
        det = MG1KQueue(lam, Degenerate(0.02), k)
        expo = MG1KQueue(lam, Exponential(50.0), k)
        assert det.blocking_probability < expo.blocking_probability

    def test_k_equal_one(self):
        gk = MG1KQueue(30.0, Gamma(2.0, 100.0), 1)
        # With K=1 every accepted job sojourns exactly one service.
        service = Gamma(2.0, 100.0)
        t = np.array([0.01, 0.05])
        assert np.allclose(gk.sojourn_time().cdf(t), service.cdf(t), atol=1e-6)

    def test_littles_law(self):
        gk = MG1KQueue(70.0, Gamma(2.0, 100.0), 5)
        assert gk.mean_number_in_system == pytest.approx(
            gk.effective_arrival_rate * gk.mean_sojourn_time, rel=0.02
        )


class TestFiniteSource:
    def test_state_probabilities_sum(self):
        q = FiniteSourceQueue(2.0, 50.0, 8)
        assert q.state_probabilities().sum() == pytest.approx(1.0)

    def test_throughput_matching(self):
        q = FiniteSourceQueue.from_offered_rate(30.0, 50.0, 10)
        assert q.throughput == pytest.approx(30.0, rel=1e-6)

    def test_infeasible_rate_rejected(self):
        with pytest.raises(QueueingError):
            FiniteSourceQueue.from_offered_rate(60.0, 50.0, 4)

    def test_single_source_never_queues(self):
        q = FiniteSourceQueue(5.0, 50.0, 1)
        soj = q.sojourn_time()
        # Arrival theorem: the lone source always finds an empty system.
        expo = Exponential(50.0)
        t = np.array([0.01, 0.1])
        assert np.allclose(soj.cdf(t), expo.cdf(t), atol=1e-7)

    def test_utilization_below_one(self):
        q = FiniteSourceQueue.from_offered_rate(45.0, 50.0, 16)
        assert 0.0 < q.utilization < 1.0

    def test_sojourn_grows_with_sources(self):
        q4 = FiniteSourceQueue(2.0, 50.0, 4)
        q16 = FiniteSourceQueue(2.0, 50.0, 16)
        assert q16.mean_sojourn_time > q4.mean_sojourn_time


# ----------------------------------------------------------------------
# lattices (the grid-domain discretisations of the queueing laws)
# ----------------------------------------------------------------------

LATTICE_BINS = 4096


def _edges(dt, n=LATTICE_BINS):
    return (np.arange(n) + 0.5) * dt


class TestLattices:
    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_pk_lattice_matches_exact_mm1_wait(self, rho):
        """P(W <= t) = 1 - rho e^{-(mu - lambda) t} at every bin edge."""
        mu = 40.0
        lam = rho * mu
        wait = MG1Queue(lam, Exponential(mu)).waiting_time()
        dt = 12.0 * (wait.mean + 1.0 / mu) / LATTICE_BINS
        grid = wait.to_grid(dt, LATTICE_BINS)
        exact = 1.0 - rho * np.exp(-(mu - lam) * _edges(dt))
        assert np.max(np.abs(grid._cumulative - exact)) <= 1e-6

    def test_pk_lattice_near_saturation_on_a_short_horizon(self):
        """At rho = 0.999 the wait's mean is 50x this horizon; the damped
        FFT keeps the mass beyond it from wrapping onto the kept bins,
        and reports it as the lattice's tail instead."""
        rho, mu = 0.999, 1.0
        wait = MG1Queue(rho * mu, Exponential(mu)).waiting_time()
        dt = 20.0 / LATTICE_BINS
        grid = wait.to_grid(dt, LATTICE_BINS)
        exact = 1.0 - rho * np.exp(-(1.0 - rho) * mu * _edges(dt))
        assert np.max(np.abs(grid._cumulative - exact)) <= 1e-7
        assert grid.tail_mass == pytest.approx(1.0 - exact[-1], abs=1e-7)

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_pk_lattice_with_a_pareto_service_keeps_its_tail(self, alpha):
        """A Pareto service leaves residual mass beyond a 12-mean horizon
        (3.7% at alpha 2.5); the lattice keeps it out of the kept bins
        and agrees with the inverted CDF instead of spreading it back."""
        service = Pareto(alpha, 1e-3)
        wait = MG1Queue(0.5 / service.mean, service).waiting_time()
        dt = 12.0 * (wait.mean + service.mean) / LATTICE_BINS
        grid = wait.to_grid(dt, LATTICE_BINS)
        edges = _edges(dt)[::16]
        inverted = np.asarray(wait.cdf(edges))
        assert np.max(np.abs(grid._cumulative[::16] - inverted)) <= 1e-4
        assert grid.tail_mass == pytest.approx(1.0 - inverted[-1], abs=1e-4)

    @pytest.mark.parametrize("lam, capacity", [(40.0, 3), (80.0, 16), (130.0, 8)])
    def test_mm1k_lattice_matches_mm1k_cdf(self, lam, capacity):
        sojourn = MM1KQueue(lam, 100.0, capacity).sojourn_time()
        dt = 12.0 * sojourn.mean / LATTICE_BINS
        grid = sojourn.to_grid(dt, LATTICE_BINS)
        edges = _edges(dt)[::16]
        inverted = np.asarray(sojourn.cdf(edges))
        assert np.max(np.abs(grid._cumulative[::16] - inverted)) <= 1e-7

    def test_lattice_leaves_the_transform_alone(self):
        """The lattice hook changes no moment, token or transform value."""
        service = Gamma(2.0, 100.0)
        wait = MG1Queue(20.0, service).waiting_time()
        s = np.array([1.0, 10.0 + 5.0j, 100.0])
        before = (wait.mean, wait.cache_token(), wait.laplace(s).tolist())
        wait.to_grid(1e-4, LATTICE_BINS)
        assert (wait.mean, wait.cache_token(), wait.laplace(s).tolist()) == before


class TestLazyTakacsMoment:
    def test_base_model_build_never_calls_it(self, monkeypatch, system_params):
        from repro.model import LatencyPercentileModel

        def forbidden(self, mean_wait):
            raise AssertionError("the Takacs moment was computed")

        monkeypatch.setattr(MG1Queue, "_waiting_second_moment", forbidden)
        model = LatencyPercentileModel(system_params)
        model.sla_percentile(0.1)

    def test_value_when_read_is_the_eager_one(self):
        q = MG1Queue(20.0, Gamma(2.0, 100.0))
        wait = q.waiting_time()
        assert wait.second_moment == q._waiting_second_moment(q.mean_waiting_time)
        assert wait.second_moment == wait.second_moment
