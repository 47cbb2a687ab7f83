"""Tests for repro.harness.table1."""

import pytest

from repro.harness.runner import RunResult
from repro.harness.table1 import (
    Table1Row,
    default_config,
    make_traces,
    render_table1,
    run_table1,
    table1_rows,
)
from tests.helpers import ONE_EPOCH


class TestDefaultConfig:
    @pytest.mark.parametrize("m,k", [(30, 3), (40, 4), (6, 3), (8, 4), (7, 1)])
    def test_group_choice_divides(self, m, k):
        config = default_config(m)
        assert config.global_tier.num_groups == k
        assert m % config.global_tier.num_groups == 0


class TestMakeTraces:
    def test_counts(self):
        eval_jobs, train = make_traces(300, 6, seed=0, n_train_segments=2)
        assert len(eval_jobs) == 300
        assert len(train) == 2
        assert len(train[0]) == 200  # floor of 0.5 * 300 clamped to >= 200

    def test_rate_scales_down_for_small_clusters(self):
        small_eval, _ = make_traces(300, 6, seed=0)
        big_eval, _ = make_traces(300, 30, seed=0)
        # Same job count, lighter rate => longer span for the small cluster.
        assert small_eval[-1].arrival_time > big_eval[-1].arrival_time

    def test_same_intensity_for_30_and_40(self):
        a, _ = make_traces(300, 30, seed=0)
        b, _ = make_traces(300, 40, seed=0)
        assert a == b

    def test_deterministic(self):
        a, _ = make_traces(100, 6, seed=3)
        b, _ = make_traces(100, 6, seed=3)
        assert a == b


class TestRows:
    def test_from_result(self):
        result = RunResult(
            name="x", num_servers=30, n_jobs=100, energy_kwh=2.0,
            acc_latency=5e6, mean_latency=50.0, average_power=500.0,
            final_time=1000.0, latency_series=(), energy_series=(),
        )
        row = Table1Row.from_result(result)
        assert row.latency_1e6_s == pytest.approx(5.0)
        assert row.energy_kwh == 2.0

    def test_render(self):
        rows = [Table1Row("round-robin", 30, 441.47, 85.20, 2627.79)]
        text = render_table1(rows)
        assert "round-robin" in text
        assert "441.47" in text
        assert "Energy (kWh)" in text


@pytest.mark.slow
class TestEndToEnd:
    def test_tiny_table1(self):
        results = run_table1(
            n_jobs=250,
            cluster_sizes=(4,),
            seed=0,
            protocol=ONE_EPOCH,
        )
        assert list(results) == [4]
        assert list(results[4]) == ["round-robin", "drl-only", "hierarchical"]
        rows = table1_rows(results)
        assert len(rows) == 3
        systems = {r.system for r in rows}
        assert systems == {"round-robin", "drl-only", "hierarchical"}
        assert all(r.energy_kwh > 0 for r in rows)
        assert all(r.latency_1e6_s > 0 for r in rows)
