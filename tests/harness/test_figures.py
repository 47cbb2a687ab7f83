"""Tests for the Fig. 8/9 series renderer (repro.harness.table1)."""

import pytest

from repro.harness.runner import RunResult
from repro.harness.table1 import render_series_csv


def run_result(name, latency, energy):
    return RunResult(
        name=name,
        num_servers=30,
        n_jobs=200,
        energy_kwh=energy[-1][1],
        acc_latency=latency[-1][1],
        mean_latency=0.0,
        average_power=0.0,
        final_time=0.0,
        latency_series=latency,
        energy_series=energy,
    )


@pytest.fixture
def results():
    return {
        "round-robin": run_result(
            "round-robin",
            latency=((100, 50_000.0), (200, 100_000.0)),
            energy=((100, 5.0), (200, 10.0)),
        ),
        "hierarchical": run_result(
            "hierarchical",
            latency=((100, 60_000.0), (200, 130_000.0)),
            energy=((100, 3.0), (200, 6.0)),
        ),
    }


class TestRenderCsv:
    def test_latency_panel(self, results):
        text = render_series_csv(results, "latency")
        assert text.splitlines()[0] == "system,n_jobs,acc_latency_s"
        assert "round-robin,100,50000.0" in text

    def test_energy_panel(self, results):
        text = render_series_csv(results, "energy")
        assert "energy_kwh" in text
        assert "hierarchical,200,6.0" in text

    def test_invalid_panel_raises(self, results):
        with pytest.raises(ValueError):
            render_series_csv(results, "power")

    def test_rows_follow_the_systems_order(self, results):
        lines = render_series_csv(results, "energy").splitlines()[1:]
        systems = [line.split(",")[0] for line in lines]
        assert systems == ["round-robin"] * 2 + ["hierarchical"] * 2
