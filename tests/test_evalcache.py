"""Regression tests for the evaluation cache's failure modes.

The cache keys on ``cache_token()`` value identities.  Two ways that
contract can be broken used to fail silently or cryptically:

* a token containing an unhashable object surfaced as an anonymous
  ``TypeError: unhashable type`` from inside ``OrderedDict`` with no
  hint of which distribution produced it;
* mutating an :class:`Empirical`'s sample array after its lazy token was
  computed would leave the token stale, so later evaluations could be
  served from cache entries describing the *old* samples.

Both must now fail loudly at the point of the bug.  The byte bound on
the memo is checked here too: it may drop and recompute values, but it
must never change an answer.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.distributions import Degenerate, Empirical, Gamma, evalcache
from repro.model import (
    CacheMissRatios,
    DeviceParameters,
    DiskLatencyProfile,
    FrontendParameters,
    RedundantLatencyModel,
    SystemParameters,
    replica_sets_from_ring,
)
from repro.simulator.ring import HashRing


@pytest.fixture(autouse=True)
def fresh_cache():
    evalcache.clear()
    yield
    evalcache.clear()


class _BadTokenDist:
    """Distribution stub whose token embeds an unhashable object."""

    def cache_token(self):
        return ("bad", [1, 2, 3])

    def laplace(self, s):
        return np.exp(-np.asarray(s, dtype=complex))


class _UncachedDist:
    def cache_token(self):
        return None

    def laplace(self, s):
        return np.exp(-np.asarray(s, dtype=complex))


class TestUnhashableTokens:
    def test_cached_grid_names_the_offender(self):
        with pytest.raises(TypeError, match=r"_BadTokenDist.*unhashable"):
            evalcache.cached_grid(_BadTokenDist(), 1e-3, 64, lambda: object())

    def test_cached_inversion_names_the_offender(self):
        with pytest.raises(TypeError, match=r"_BadTokenDist.*unhashable"):
            evalcache.cached_inversion(
                _BadTokenDist(),
                "euler",
                32,
                0.0,
                np.array([0.1]),
                lambda: np.array([0.5]),
            )

    def test_none_token_still_falls_through_uncached(self):
        s = np.array([1.0, 3.0])
        out = evalcache.cached_inversion(
            _UncachedDist(), "euler", 32, 0.0, s, lambda: np.exp(-s)
        )
        np.testing.assert_allclose(out, np.exp(-s))
        assert evalcache.stats()["inversion_entries"] == 0


class TestEmpiricalTokenIntegrity:
    def test_samples_are_frozen_after_construction(self):
        emp = Empirical([1.0, 2.0, 3.0])
        emp.cache_token()
        with pytest.raises(ValueError):
            emp.samples[0] = 99.0

    def test_freezing_does_not_alias_caller_array(self):
        raw = np.array([3.0, 1.0, 2.0])
        Empirical(raw)
        raw[0] = 7.0  # caller's array stays writable and independent

    def test_equal_samples_share_token_distinct_samples_do_not(self):
        a = Empirical([1.0, 2.0])
        b = Empirical([2.0, 1.0])  # same sorted law
        c = Empirical([1.0, 2.5])
        assert a.cache_token() == b.cache_token()
        assert a.cache_token() != c.cache_token()


class TestCompositeTokenMemo:
    def test_token_is_stable(self):
        from repro.distributions.composite import Convolution, Mixture

        conv = Convolution([Gamma(2.0, 100.0), Gamma(3.0, 80.0)])
        token = conv.cache_token()
        assert conv.cache_token() == token
        mix = Mixture([conv, Gamma(1.0, 10.0)], [0.25, 0.75])
        assert mix.cache_token() == mix.cache_token()

    def test_uncacheable_child_memoises_none(self):
        from repro.distributions import TransformDistribution
        from repro.distributions.composite import Convolution

        opaque = TransformDistribution(
            lambda s: np.exp(-s), mean=1.0, second_moment=2.0
        )
        conv = Convolution([Gamma(2.0, 100.0), opaque])
        assert conv.cache_token() is None
        assert conv.cache_token() is None  # sentinel distinguishes None

    def test_memo_survives_pickle(self):
        import pickle

        from repro.distributions.composite import Convolution

        conv = Convolution([Gamma(2.0, 100.0), Gamma(3.0, 80.0)])
        fresh = pickle.loads(pickle.dumps(conv))  # memo not yet computed
        token = conv.cache_token()
        warm = pickle.loads(pickle.dumps(conv))  # memo computed
        assert fresh.cache_token() == token
        assert warm.cache_token() == token


def _kofn_params(loads):
    """A system with one device per ``(rate, miss ratios)`` load."""
    disk = DiskLatencyProfile(
        index=Gamma(2.4, 140.0), meta=Gamma(1.8, 210.0), data=Gamma(2.0, 235.0)
    )
    return SystemParameters(
        frontend=FrontendParameters(12, Degenerate(0.001)),
        devices=tuple(
            DeviceParameters(
                f"dev{i}", rate, rate * 1.04, CacheMissRatios(*miss),
                disk, Degenerate(0.0004), 1,
            )
            for i, (rate, miss) in enumerate(loads)
        ),
    )


def _kofn_answers(params, rows) -> list:
    model = RedundantLatencyModel(params, rows, strategy="kofn", fanout=2)
    return [x.hex() for x in model.sla_percentiles([0.02, 0.05, 0.1])]


#: One replica row of three equal devices: the cheapest kofn@2 query.
_ROW = ((("dev0", "dev1", "dev2"), 1.0),)


@pytest.fixture(scope="module")
def kofn_reference():
    """Answers of the small query at the default ceiling, and its
    answers with the memo bypassed."""
    params = _kofn_params([(30.0, (0.4, 0.45, 0.7))] * 4)
    evalcache.clear()
    default = _kofn_answers(params, _ROW)
    evalcache.clear()
    with evalcache.bypass():
        bypassed = _kofn_answers(params, _ROW)
    return params, default, bypassed


class TestByteBoundedKofn:
    """A kofn@2 query composes on FFT lattices: it leaves no transform
    node arrays or inversions in the memo, only 4,096-bin grids, and
    the byte bound must never change an answer."""

    @pytest.mark.parametrize("max_bytes", [1 << 18, 1 << 20, 4 << 20])
    def test_tight_ceiling_answers_bit_identical(
        self, monkeypatch, kofn_reference, max_bytes
    ):
        params, default, bypassed = kofn_reference
        assert default == bypassed
        monkeypatch.setattr(evalcache, "MAX_BYTES", max_bytes)
        assert _kofn_answers(params, _ROW) == default
        stats = evalcache.stats()
        assert stats["grid_bytes"] <= max_bytes
        if max_bytes == 1 << 18:
            # The query's 0.52 MB of lattices does not fit: grids were
            # dropped, and the answers above did not move.
            assert stats["evictions"] > 0

    def test_default_ceiling_loses_no_hits(self, monkeypatch):
        """Over four distinct devices the query holds about 1.5 MB of
        lattices and no transform or inversion arrays, so the default
        ceiling does not bind: an unbounded memo gets the same hits and
        misses and ends in the same state."""
        params = _kofn_params(
            [
                (18.0, (0.35, 0.40, 0.72)),
                (24.0, (0.40, 0.45, 0.70)),
                (30.0, (0.33, 0.50, 0.80)),
                (12.0, (0.45, 0.38, 0.75)),
            ]
        )
        ring = HashRing(64, 4, 3, np.random.default_rng(5))
        rows = replica_sets_from_ring(ring, [d.name for d in params.devices])

        def footprint():
            evalcache.clear()
            answers = _kofn_answers(params, rows)
            stats = evalcache.stats()
            return answers, {
                key: stats[key]
                for key in (
                    "hits",
                    "misses",
                    "inversion_bytes",
                    "grid_bytes",
                    "grid_entries",
                    "evictions",
                )
            }

        bounded, held = footprint()
        assert held["inversion_bytes"] == 0
        assert 0 < held["grid_bytes"] <= 2 << 20
        assert held["evictions"] == 0
        monkeypatch.setattr(evalcache, "MAX_BYTES", sys.maxsize)
        assert footprint() == (bounded, held)
