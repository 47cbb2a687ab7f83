"""Tests for repro.harness.tradeoff."""

import pytest

from repro.harness.runner import RunResult
from repro.harness.tradeoff import (
    TradeoffPoint,
    curve,
    frontier_savings,
    pareto_front,
    render_tradeoff_csv,
    run_tradeoff,
)
from tests.helpers import NO_TRAINING


def pt(curve_name, param, latency, energy):
    return TradeoffPoint(curve_name, param, latency, energy)


@pytest.fixture
def synthetic_points():
    """Hierarchical curve strictly dominates the fixed-60 curve."""
    return [
        pt("hierarchical", 0.1, 100.0, 10.0),
        pt("hierarchical", 0.5, 150.0, 6.0),
        pt("hierarchical", 0.9, 250.0, 4.0),
        pt("fixed-60", 60.0, 130.0, 10.0),
        pt("fixed-60", 60.0, 200.0, 6.0),
        pt("fixed-60", 60.0, 320.0, 4.0),
    ]


class TestCurveHelpers:
    def test_curve_filters_and_sorts(self, synthetic_points):
        c = curve(synthetic_points, "hierarchical")
        assert [p.parameter for p in c] == [0.9, 0.5, 0.1]  # by energy asc

    def test_pareto_front_drops_dominated(self):
        points = [
            pt("h", 1, 100.0, 5.0),
            pt("h", 2, 90.0, 6.0),
            pt("h", 3, 120.0, 7.0),  # dominated by both
        ]
        front = pareto_front(points)
        assert {p.parameter for p in front} == {1, 2}

    def test_pareto_front_keeps_incomparable(self):
        points = [pt("h", 1, 100.0, 5.0), pt("h", 2, 50.0, 9.0)]
        assert len(pareto_front(points)) == 2


class TestFrontierSavings:
    def test_dominating_curve_positive_savings(self, synthetic_points):
        savings = frontier_savings(synthetic_points, "hierarchical", "fixed-60")
        # Max over our samples: at energy 6, ours 150 vs baseline 200 -> 25%.
        assert savings["latency_saving"] == pytest.approx((200 - 150) / 200)
        assert savings["energy_saving"] > 0.0

    def test_missing_curve_raises(self, synthetic_points):
        with pytest.raises(ValueError):
            frontier_savings(synthetic_points, "hierarchical", "fixed-90")

    def test_disjoint_hulls_zero_savings(self):
        points = [
            pt("hierarchical", 0.5, 100.0, 1.0),
            pt("fixed-60", 60.0, 500.0, 50.0),
        ]
        savings = frontier_savings(points)
        assert savings == {"latency_saving": 0.0, "energy_saving": 0.0}

    def test_from_result_conversion(self):
        result = RunResult(
            name="hierarchical", num_servers=30, n_jobs=1000, energy_kwh=2.0,
            acc_latency=1e5, mean_latency=100.0, average_power=500.0,
            final_time=1000.0, latency_series=(), energy_series=(),
        )
        point = TradeoffPoint.from_result("hierarchical", 0.5, result)
        assert point.energy_per_job_wh == pytest.approx(2.0)
        assert point.mean_latency == 100.0


class TestRender:
    def test_csv(self, synthetic_points):
        text = render_tradeoff_csv(synthetic_points)
        header = "curve,parameter,energy_wh_per_job,mean_latency_s"
        assert text.splitlines()[0] == header
        assert len(text.splitlines()) == 7


class TestRunTradeoff:
    def test_every_point_shares_one_predictor_fit(self, monkeypatch):
        # One trained policy serves every w: the LSTM is fitted once,
        # not once per hierarchical point.
        from repro.core.predictor import WorkloadPredictor

        fits = []
        real_fit = WorkloadPredictor.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(1)
            return real_fit(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadPredictor, "fit", counting_fit)
        points = run_tradeoff(
            n_jobs=60,
            num_servers=4,
            w_sweep=(0.1, 0.5, 0.9),
            timeouts=(60.0,),
            protocol=NO_TRAINING,
        )
        assert [p.curve for p in points] == ["hierarchical"] * 3 + ["fixed-60"]
        assert len(fits) == 1

    def test_unparsable_timeout_name_fails_before_training(self, monkeypatch):
        # f"drl+fixed-{1e6:g}" is "drl+fixed-1e+06", a name no system
        # matches: it must neither fall through to the full framework
        # nor train the shared policy first.
        import repro.harness.runner as runner_module

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the system names")

        monkeypatch.setattr(runner_module, "train_site_policy", no_training)
        with pytest.raises(ValueError, match=r"unknown system 'drl\+fixed-1e\+06'"):
            run_tradeoff(n_jobs=60, num_servers=4, w_sweep=(0.5,), timeouts=(1e6,))
