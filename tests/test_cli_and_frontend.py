"""Tests for the CLI and the heterogeneous-frontend model extension."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, load_system, main, parse_distribution
from repro.distributions import (
    Degenerate,
    Exponential,
    Gamma,
    Pareto,
    ShiftedExponential,
    Weibull,
)
from repro.model import (
    FrontendParameters,
    HeterogeneousFrontendParameters,
    LatencyPercentileModel,
    ParameterError,
    SystemParameters,
    frontend_queueing_latency,
)

SYSTEM_DOC = {
    "frontend": {"n_processes": 12, "parse_ms": 1.2},
    "devices": [
        {
            "name": "disk0",
            "request_rate": 30.0,
            "data_read_rate": 33.0,
            "miss_ratios": {"index": 0.4, "meta": 0.45, "data": 0.7},
            "n_processes": 1,
            "parse_ms": 0.4,
            "disk": {
                "index": {"family": "gamma", "shape": 2.4, "rate": 140.0},
                "meta": {"family": "gamma", "shape": 1.8, "rate": 210.0},
                "data": {"family": "gamma", "shape": 2.0, "rate": 230.0},
            },
        }
    ],
    "slas_ms": [10, 50, 100],
}


class TestParseDistribution:
    def test_all_families(self):
        assert isinstance(
            parse_distribution({"family": "gamma", "shape": 2.0, "rate": 100.0}), Gamma
        )
        assert isinstance(
            parse_distribution({"family": "exponential", "rate": 50.0}), Exponential
        )
        e = parse_distribution({"family": "exponential", "mean_ms": 20.0})
        assert e.mean == pytest.approx(0.02)
        d = parse_distribution({"family": "degenerate", "value_ms": 0.5})
        assert isinstance(d, Degenerate) and d.value == pytest.approx(5e-4)
        assert isinstance(
            parse_distribution({"family": "weibull", "shape": 1.5, "scale_ms": 10.0}),
            Weibull,
        )
        assert isinstance(
            parse_distribution({"family": "pareto", "alpha": 3.0, "sigma_ms": 20.0}),
            Pareto,
        )
        assert isinstance(
            parse_distribution(
                {"family": "shifted-exponential", "floor_ms": 2.0, "rate": 100.0}
            ),
            ShiftedExponential,
        )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_distribution({"family": "cauchy"})
        with pytest.raises(ValueError):
            parse_distribution({"shape": 1.0})


class TestLoadSystem:
    def test_roundtrip(self):
        params, slas = load_system(SYSTEM_DOC)
        assert params.frontend.n_processes == 12
        assert len(params.devices) == 1
        assert params.devices[0].miss_ratios.data == pytest.approx(0.7)
        assert slas == [0.01, 0.05, 0.1]
        LatencyPercentileModel(params)  # must be solvable

    def test_miss_ratio_list_form(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        doc["devices"][0]["miss_ratios"] = [0.4, 0.45, 0.7]
        params, _ = load_system(doc)
        assert params.devices[0].miss_ratios.meta == pytest.approx(0.45)

    def test_default_slas(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        del doc["slas_ms"]
        _, slas = load_system(doc)
        assert slas == [0.01, 0.05, 0.1]


class TestCliMain:
    def test_predict_command(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(SYSTEM_DOC))
        assert main(["predict", str(path)]) == 0
        out = capsys.readouterr().out
        assert "percentile of requests meeting each SLA" in out
        assert "p99" in out
        assert "disk0" in out

    def test_predict_baseline_model(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(SYSTEM_DOC))
        assert main(["predict", str(path), "--model", "odopr"]) == 0
        assert "odopr" in capsys.readouterr().out

    def test_parser_rejects_unknown_command(self):
        for cmd in ("frobnicate", "bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd])

    def test_parser_accepts_artifact_commands(self):
        for cmd in ("fig5", "fig6", "fig7", "tables", "ablations"):
            args = build_parser().parse_args([cmd, "--scale", "ci", "--seed", "3"])
            assert args.seed == 3


class TestHeterogeneousFrontend:
    def test_identical_pools_match_homogeneous(self, system_params):
        import dataclasses

        pools = HeterogeneousFrontendParameters(
            (
                FrontendParameters(8, Degenerate(0.001)),
                FrontendParameters(4, Degenerate(0.001)),
            )
        )
        hetero = dataclasses.replace(system_params, frontend=pools)
        a = LatencyPercentileModel(system_params).sla_percentile(0.05)
        b = LatencyPercentileModel(hetero).sla_percentile(0.05)
        assert b == pytest.approx(a, abs=1e-6)

    def test_slower_pool_lowers_percentile(self, system_params):
        import dataclasses

        slow = HeterogeneousFrontendParameters(
            (
                FrontendParameters(8, Degenerate(0.001)),
                FrontendParameters(4, Degenerate(0.006)),
            )
        )
        hetero = dataclasses.replace(system_params, frontend=slow)
        a = LatencyPercentileModel(system_params).sla_percentile(0.05)
        b = LatencyPercentileModel(hetero).sla_percentile(0.05)
        assert b < a

    def test_default_shares_proportional(self):
        tier = HeterogeneousFrontendParameters(
            (
                FrontendParameters(9, Degenerate(0.001)),
                FrontendParameters(3, Degenerate(0.001)),
            )
        )
        assert tier.shares == pytest.approx((0.75, 0.25))
        assert tier.n_processes == 12

    def test_share_validation(self):
        with pytest.raises(ParameterError):
            HeterogeneousFrontendParameters(
                (FrontendParameters(4, Degenerate(0.001)),), shares=(0.5,)
            )
        with pytest.raises(ParameterError):
            HeterogeneousFrontendParameters(())

    def test_queueing_latency_mixture(self):
        tier = HeterogeneousFrontendParameters(
            (
                FrontendParameters(6, Degenerate(0.001)),
                FrontendParameters(6, Degenerate(0.002)),
            )
        )
        sq = frontend_queueing_latency(tier, 600.0)
        fast = frontend_queueing_latency(FrontendParameters(6, Degenerate(0.001)), 300.0)
        slow = frontend_queueing_latency(FrontendParameters(6, Degenerate(0.002)), 300.0)
        t = np.array([0.002, 0.005, 0.01])
        expected = 0.5 * np.asarray(fast.cdf(t)) + 0.5 * np.asarray(slow.cdf(t))
        assert np.allclose(np.asarray(sq.cdf(t)), expected, atol=1e-6)


class TestSerializationRoundTrip:
    def test_system_roundtrip(self, system_params):
        from repro.model import system_from_doc, system_to_doc

        doc = system_to_doc(system_params, slas_seconds=[0.01, 0.05])
        back, slas = system_from_doc(doc)
        assert slas == [0.01, 0.05]
        assert len(back.devices) == len(system_params.devices)
        for a, b in zip(back.devices, system_params.devices):
            assert a.name == b.name
            assert a.request_rate == pytest.approx(b.request_rate)
            assert a.miss_ratios == b.miss_ratios
            assert a.disk.index.mean == pytest.approx(b.disk.index.mean)
        assert back.frontend.n_processes == system_params.frontend.n_processes
        # Predictions survive the round trip bit-for-bit.
        a = LatencyPercentileModel(system_params).sla_percentile(0.05)
        b = LatencyPercentileModel(back).sla_percentile(0.05)
        assert a == pytest.approx(b, abs=1e-12)

    def test_distribution_specs_roundtrip(self):
        from repro.model import distribution_from_spec, distribution_to_spec
        from repro.distributions import (
            Degenerate,
            Exponential,
            Gamma,
            Pareto,
            ShiftedExponential,
            Weibull,
        )

        for dist in (
            Gamma(2.3, 150.0),
            Exponential(40.0),
            Degenerate(0.0007),
            Weibull(1.3, 0.012),
            Pareto(3.1, 0.02),
            ShiftedExponential(0.004, 90.0),
        ):
            back = distribution_from_spec(distribution_to_spec(dist))
            assert type(back) is type(dist)
            assert back.mean == pytest.approx(dist.mean, rel=1e-12)

    def test_unsupported_distribution_rejected(self):
        from repro.model import distribution_to_spec
        from repro.distributions import Hyperexponential

        with pytest.raises(ValueError):
            distribution_to_spec(Hyperexponential([0.5, 0.5], [1.0, 2.0]))

    def test_hetero_frontend_rejected(self, system_params):
        import dataclasses

        from repro.model import (
            HeterogeneousFrontendParameters,
            ParameterError,
            system_to_doc,
        )

        hetero = dataclasses.replace(
            system_params,
            frontend=HeterogeneousFrontendParameters(
                (FrontendParameters(4, Degenerate(0.001)),)
            ),
        )
        with pytest.raises(ParameterError):
            system_to_doc(hetero)
