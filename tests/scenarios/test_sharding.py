"""Tests for repro.scenarios.sharding: single-cell trace sharding."""

import pytest

from repro.scenarios.orchestrator import run_cell
from repro.scenarios.sharding import (
    SHARD_TOLERANCE,
    combine_shard_metrics,
    run_cell_sharded,
    shard_capacity_events,
    shard_trace,
)
from repro.sim.churn import CapacityEvent
from repro.sim.job import Job


def trace(n=20, dt=10.0):
    return [Job(i, i * dt, 60.0, (0.2, 0.1, 0.1)) for i in range(n)]


class TestShardTrace:
    def test_partitions_all_jobs(self):
        segments, starts = shard_trace(trace(20), 3)
        assert [len(s) for s in segments] == [7, 7, 6]
        assert starts == [0.0, 70.0, 140.0]

    def test_segments_rebased_to_zero(self):
        segments, _ = shard_trace(trace(10), 2)
        for seg in segments:
            assert seg[0].arrival_time == 0.0
            assert all(
                a.arrival_time <= b.arrival_time for a, b in zip(seg, seg[1:])
            )

    def test_shards_clamped_to_trace_length(self):
        segments, _ = shard_trace(trace(3), 10)
        assert len(segments) == 3
        assert all(len(s) == 1 for s in segments)

    def test_single_shard_is_whole_trace(self):
        segments, starts = shard_trace(trace(5), 1)
        assert len(segments) == 1 and len(segments[0]) == 5
        assert starts == [0.0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shard_trace(trace(5), 0)
        with pytest.raises(ValueError):
            shard_trace([], 2)


class TestShardCapacityEvents:
    def test_events_routed_and_shifted(self):
        starts = [0.0, 100.0, 200.0]
        events = (
            CapacityEvent(time=10.0, server_id=0, duration=5.0),
            CapacityEvent(time=150.0, server_id=1, duration=5.0, fraction=0.5),
            CapacityEvent(time=250.0, server_id=2, duration=5.0),
        )
        routed = shard_capacity_events(events, starts)
        assert [len(r) for r in routed] == [1, 1, 1]
        assert routed[0][0].time == 10.0
        assert routed[1][0].time == 50.0 and routed[1][0].fraction == 0.5
        assert routed[2][0].time == 50.0 and routed[2][0].server_id == 2

    def test_no_events(self):
        assert shard_capacity_events((), [0.0, 10.0]) == [(), ()]


class TestCombine:
    def test_additive_fields_and_derived_means(self):
        shards = [
            {"n_jobs_offered": 10, "n_jobs_completed": 10, "energy_kwh": 1.0,
             "acc_latency_s": 500.0, "final_time_s": 1000.0, "capacity_events": 1},
            {"n_jobs_offered": 10, "n_jobs_completed": 9, "energy_kwh": 2.0,
             "acc_latency_s": 450.0, "final_time_s": 800.0, "capacity_events": 0},
        ]
        combined = combine_shard_metrics(shards)
        assert combined["n_jobs_completed"] == 19
        assert combined["energy_kwh"] == pytest.approx(3.0)
        assert combined["mean_latency_s"] == pytest.approx(950.0 / 19)
        assert combined["average_power_w"] == pytest.approx(3.0 * 3.6e6 / 1800.0)
        assert combined["shards"] == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            combine_shard_metrics([])


class TestRunCellSharded:
    # Intensive metrics tolerate small shards; extensive (span) metrics
    # need shard windows well beyond the 2 h job-duration cap, hence the
    # properly-sized cell below (see the module docstring of
    # repro.scenarios.sharding for the documented sizing rule).
    @pytest.fixture(scope="class")
    def unsharded(self):
        return run_cell("paper-default", "round-robin", n_jobs=400, seed=0)

    @pytest.fixture(scope="class")
    def sharded(self):
        return run_cell_sharded(
            "paper-default", "round-robin", n_jobs=400, seed=0, shards=4
        )

    def test_all_jobs_complete(self, unsharded, sharded):
        assert sharded["n_jobs_offered"] == unsharded["n_jobs_offered"]
        assert sharded["n_jobs_completed"] == unsharded["n_jobs_completed"]

    def test_intensive_metrics_within_tolerance_small_shards(
        self, unsharded, sharded
    ):
        for key in ("average_power_w", "mean_latency_s"):
            assert sharded[key] == pytest.approx(
                unsharded[key], rel=SHARD_TOLERANCE
            ), key

    def test_all_metrics_within_tolerance_when_sized_right(self):
        unsharded = run_cell("paper-default", "round-robin", n_jobs=4800, seed=0)
        sharded = run_cell_sharded(
            "paper-default", "round-robin", n_jobs=4800, seed=0, shards=2
        )
        for key in ("energy_kwh", "average_power_w", "final_time_s",
                    "mean_latency_s", "energy_per_job_wh"):
            assert sharded[key] == pytest.approx(
                unsharded[key], rel=SHARD_TOLERANCE
            ), key

    def test_provenance_fields(self, sharded):
        assert sharded["shards"] == 4
        assert sharded["scenario"] == "paper-default"
        assert sharded["system"] == "round-robin"
        assert sharded["workers_used"] >= 1

    def test_sharded_deterministic(self, sharded):
        again = run_cell_sharded(
            "paper-default", "round-robin", n_jobs=400, seed=0, shards=4
        )
        for key, value in sharded.items():
            if isinstance(value, float):
                assert again[key] == pytest.approx(value, rel=1e-12), key
            else:
                assert again[key] == value, key

    def test_churny_scenario_routes_events(self):
        cell = run_cell_sharded(
            "maintenance-churn", "round-robin", n_jobs=200, seed=1, shards=2
        )
        assert cell["capacity_events"] > 0
        assert cell["n_jobs_completed"] == cell["n_jobs_offered"]

    def test_pool_path_matches_serial_fallback(self):
        """Forcing a 2-worker pool (even on 1 CPU) must reproduce the
        serial shard-execution results exactly — warm copies are handed
        off by pickling either way."""
        serial = run_cell_sharded(
            "paper-default", "round-robin", n_jobs=200, seed=3, shards=2, workers=1
        )
        pooled = run_cell_sharded(
            "paper-default", "round-robin", n_jobs=200, seed=3, shards=2, workers=2
        )
        assert pooled["workers_used"] == 2
        for key, value in serial.items():
            if key == "workers_used":
                continue
            if isinstance(value, float):
                assert pooled[key] == pytest.approx(value, rel=1e-12), key
            else:
                assert pooled[key] == value, key

    def test_sharded_drl_system_runs(self):
        cell = run_cell_sharded(
            "paper-default", "drl-only", n_jobs=150, seed=0, shards=2
        )
        assert cell["n_jobs_completed"] == 150
        assert cell["shards"] == 2

    def test_one_shard_matches_semantics(self):
        cell = run_cell_sharded(
            "paper-default", "round-robin", n_jobs=120, seed=0, shards=1
        )
        assert cell["shards"] == 1
        assert cell["n_jobs_completed"] == 120

    @pytest.mark.parametrize("workers", [0, -2])
    def test_out_of_range_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_cell_sharded(
                "paper-default", "round-robin", n_jobs=60, shards=2, workers=workers
            )

    def test_faulted_scenario_is_refused(self):
        # Shards would replay the trace without the scenario's fault
        # plan: a silently fault-free result, so refuse instead.
        with pytest.raises(ValueError, match="faults"):
            run_cell_sharded(
                "failure-storm", "round-robin", n_jobs=60, seed=0, shards=2
            )


class TestShardedTariff:
    @staticmethod
    def _tou_spec():
        # Peak price confined to the experiment's opening window: only
        # shard 0 should pay it. An unshifted shard would re-enter the
        # peak window at its local t = 0, over-billing every shard.
        from dataclasses import replace

        from repro.scenarios import registry
        from repro.sim.power import TariffModel

        return replace(
            registry.get("paper-default"),
            tariff=TariffModel(price=0.05, price_windows=((0.0, 600.0, 0.40),)),
        )

    def test_shards_receive_absolute_time_offsets(self, monkeypatch):
        import repro.scenarios.sharding as sharding_module
        from repro.scenarios.federation import build_cell
        from repro.scenarios.sharding import shard_trace

        spec = self._tou_spec()
        captured = []
        original = sharding_module._run_shard

        def spy(args):
            captured.append(args[4])  # the shard's tariff
            return original(args)

        monkeypatch.setattr(sharding_module, "_run_shard", spy)
        run_cell_sharded(spec, "round-robin", n_jobs=200, seed=0, shards=3,
                         workers=1)
        assert len(captured) == 3
        _, _, (eval_jobs,) = build_cell("round-robin", spec, 200, seed=0)
        _, starts = shard_trace(eval_jobs, 3)
        assert [t.t_offset for t in captured] == pytest.approx(starts)

    def test_sharded_cost_tracks_the_unsharded_account(self):
        # End-to-end sanity at small-shard scale: the effective price
        # paid ($/kWh) must track the unsharded run despite the
        # documented extensive-energy drain bias (which, unshifted,
        # would instead more than double the effective price here).
        spec = self._tou_spec()
        unsharded = run_cell(spec, "round-robin", n_jobs=400, seed=0)
        sharded = run_cell_sharded(
            spec, "round-robin", n_jobs=400, seed=0, shards=4
        )
        assert unsharded["cost_usd"] > 0 and sharded["cost_usd"] > 0
        effective_u = unsharded["cost_usd"] / unsharded["energy_kwh"]
        effective_s = sharded["cost_usd"] / sharded["energy_kwh"]
        assert effective_s == pytest.approx(effective_u, rel=0.25)
        assert sharded["co2_kg"] > 0
