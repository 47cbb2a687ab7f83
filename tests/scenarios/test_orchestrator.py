"""Orchestrator: determinism, caching, and aggregation."""

import pytest

from repro.scenarios.orchestrator import (
    aggregate_rows,
    render_sweep_csv,
    render_sweep_table,
    run_cell,
    sweep,
)
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    WorkloadSpec,
)
from repro.scenarios.store import ResultStore

#: A deliberately tiny scenario so orchestrator tests stay fast.
TINY = ScenarioSpec(
    name="tiny-test",
    description="4-server smoke scenario",
    fleet=FleetSpec(classes=(ServerClassSpec("standard", 4),)),
    workload=WorkloadSpec(n_train_segments=1),
)

FAST_SYSTEMS = ("round-robin", "packing")


class TestRunCell:
    def test_deterministic(self):
        a = run_cell(TINY, "round-robin", n_jobs=60, seed=3)
        b = run_cell(TINY, "round-robin", n_jobs=60, seed=3)
        assert a == b

    def test_seed_changes_result(self):
        a = run_cell(TINY, "round-robin", n_jobs=60, seed=3)
        b = run_cell(TINY, "round-robin", n_jobs=60, seed=4)
        assert a != b

    def test_result_is_json_plain(self):
        import json

        json.dumps(run_cell(TINY, "packing", n_jobs=60, seed=0))


class TestSweep:
    def test_parallel_matches_serial(self, tmp_path):
        kwargs = dict(
            scenarios=[TINY],
            systems=FAST_SYSTEMS,
            seeds=(0, 1),
            n_jobs=60,
            use_cache=False,
        )
        serial = sweep(workers=1, **kwargs)
        parallel = sweep(workers=4, **kwargs)
        assert serial.results == parallel.results

    def test_cache_hit_and_force(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        kwargs = dict(
            scenarios=[TINY], systems=("round-robin",), seeds=(0,),
            n_jobs=60, workers=1, store=store,
        )
        first = sweep(**kwargs)
        assert (first.n_computed, first.n_cached) == (1, 0)
        second = sweep(**kwargs)
        assert (second.n_computed, second.n_cached) == (0, 1)
        assert second.results == first.results
        forced = sweep(force=True, **kwargs)
        assert (forced.n_computed, forced.n_cached) == (1, 0)
        assert forced.results == first.results

    def test_parameter_change_invalidates(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        kwargs = dict(
            scenarios=[TINY], systems=("round-robin",), seeds=(0,),
            workers=1, store=store,
        )
        sweep(n_jobs=60, **kwargs)
        changed = sweep(n_jobs=70, **kwargs)
        assert changed.n_computed == 1  # different protocol => cache miss

    def test_grid_order_is_stable(self, tmp_path):
        report = sweep(
            scenarios=[TINY], systems=FAST_SYSTEMS, seeds=(0, 1),
            n_jobs=60, workers=2, use_cache=False,
        )
        labels = [(r["system"], r["seed"]) for r in report.results]
        assert labels == [
            ("round-robin", 0), ("round-robin", 1),
            ("packing", 0), ("packing", 1),
        ]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(scenarios=[TINY], systems=(), use_cache=False)
        with pytest.raises(ValueError):
            sweep(scenarios=[TINY], seeds=(), use_cache=False)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 0),
            ("workers", -2),
            ("cell_retries", -1),
            ("cell_timeout", -1.0),
            ("cell_timeout", 0.0),
        ],
    )
    def test_out_of_range_execution_knob_rejected(self, tmp_path, knob, value):
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ValueError, match=knob):
            sweep(scenarios=[TINY], systems=FAST_SYSTEMS, store=store, **{knob: value})
        # Rejected before the store is read or written.
        assert not store.root.exists()


class TestAggregation:
    def test_rows_average_over_seeds(self, tmp_path):
        report = sweep(
            scenarios=[TINY], systems=("round-robin",), seeds=(0, 1),
            n_jobs=60, workers=1, use_cache=False,
        )
        rows = report.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["n_seeds"] == 2
        mean_energy = sum(r["energy_kwh"] for r in report.results) / 2
        assert row["energy_kwh"] == pytest.approx(mean_energy)

    def test_renderings_contain_cells(self):
        rows = aggregate_rows(
            [
                {
                    "scenario": "tiny-test", "system": "round-robin", "seed": 0,
                    "num_servers": 4, "energy_kwh": 1.0, "acc_latency_s": 2e6,
                    "mean_latency_s": 10.0, "average_power_w": 100.0,
                }
            ]
        )
        table = render_sweep_table(rows)
        csv = render_sweep_csv(rows)
        assert "tiny-test" in table and "round-robin" in table
        assert csv.splitlines()[0].startswith("scenario,system")
        assert "tiny-test,round-robin" in csv


class TestElectricityAndReplayCells:
    @staticmethod
    def _replay_spec(tmp_path, tariff=None):
        from repro.scenarios.specs import TraceReplaySpec
        from repro.sim.job import Job
        from repro.workload.trace import write_trace_csv

        path = tmp_path / "trace.csv"
        write_trace_csv(
            [Job(i, i * 20.0, 150.0 + i, (0.3, 0.2, 0.1)) for i in range(60)],
            path,
        )
        return ScenarioSpec(
            name="tiny-replay",
            description="replayed smoke scenario",
            fleet=FleetSpec(classes=(ServerClassSpec("standard", 4),)),
            workload=WorkloadSpec(
                replay=TraceReplaySpec(paths=(str(path),), format="canonical"),
                n_train_segments=1,
            ),
            tariff=tariff,
        )

    def test_tariffed_cell_carries_cost_and_co2(self):
        from dataclasses import replace

        from repro.sim.power import TariffModel

        spec = replace(TINY, tariff=TariffModel(price=0.25, carbon=200.0))
        cell = run_cell(spec, "round-robin", n_jobs=60, seed=0)
        assert cell["cost_usd"] == pytest.approx(cell["energy_kwh"] * 0.25)
        assert cell["co2_kg"] == pytest.approx(cell["energy_kwh"] * 0.2)
        assert cell["cost_series"][-1][1] == pytest.approx(cell["cost_usd"])
        assert cell["co2_series"][-1][1] == pytest.approx(cell["co2_kg"])

    def test_untariffed_cell_reports_zero_account(self):
        cell = run_cell(TINY, "round-robin", n_jobs=60, seed=0)
        assert cell["cost_usd"] == 0.0
        assert cell["co2_kg"] == 0.0
        assert all(v == 0.0 for _, v in cell["cost_series"])

    def test_replay_cell_deterministic_and_cacheable(self, tmp_path):
        from repro.sim.power import TariffModel

        spec = self._replay_spec(tmp_path, tariff=TariffModel())
        store = ResultStore(tmp_path / "cache")
        first = sweep(
            scenarios=[spec], systems=("round-robin",), seeds=(0,),
            n_jobs=30, workers=1, store=store,
        )
        again = sweep(
            scenarios=[spec], systems=("round-robin",), seeds=(0,),
            n_jobs=30, workers=1, store=store,
        )
        assert first.n_computed == 1 and again.n_cached == 1
        assert again.results == first.results
        assert first.results[0]["cost_usd"] > 0

    def test_replay_and_synthetic_cells_never_share_cache_slots(self, tmp_path):
        from repro.scenarios.orchestrator import _protocol_dict, cell_request
        from repro.scenarios.orchestrator import SweepCell
        from repro.scenarios.store import content_key

        spec = self._replay_spec(tmp_path)
        protocol = _protocol_dict(60, 200, True, 1, 1)
        synth_key = content_key(
            cell_request(SweepCell(TINY, "round-robin", 0), protocol)
        )
        replay_key = content_key(
            cell_request(SweepCell(spec, "round-robin", 0), protocol)
        )
        assert synth_key != replay_key

    def test_series_rows_include_cost_and_co2(self, tmp_path):
        from dataclasses import replace

        from repro.scenarios.orchestrator import aggregate_series_rows
        from repro.sim.power import TariffModel

        spec = replace(TINY, tariff=TariffModel())
        report = sweep(
            scenarios=[spec], systems=("round-robin",), seeds=(0, 1),
            n_jobs=60, workers=1, use_cache=False,
        )
        rows = aggregate_series_rows(report.results)
        kinds = {row["series"] for row in rows}
        assert kinds == {"latency", "energy", "cost", "co2"}
        table = report.render_table()
        assert "Cost ($)" in table and "CO2 (kg)" in table
