"""Tests for the Google machine-events churn reader and its replay wiring."""

from pathlib import Path

import pytest

from repro.scenarios.builtin import FIXTURE_TRACE
from repro.scenarios.specs import ScenarioSpec, TraceReplaySpec, WorkloadSpec
from repro.workload.trace import read_google_machine_events

FIXTURE = Path("tests/fixtures/google_machine_events_small.csv")

# Keep in sync with tests/fixtures/make_machine_fixture.py.
N_MACHINES = 12
N_CLOSED_DRAINS = 6
N_OPEN_DRAINS = 1
SPAN = 4 * 3600.0


def mk(time_us, machine, event):
    return f"{time_us},{machine},{event},platform,0.5,0.5"


class TestReader:
    def test_fixture_closed_drains(self):
        events = read_google_machine_events([FIXTURE], num_servers=5)
        assert len(events) == N_CLOSED_DRAINS
        assert all(e.fraction == 0.0 for e in events)
        assert all(e.duration >= 1.0 for e in events)
        # Sorted by start time, re-based so the timeline starts at 0.
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_open_drain_closes_at_open_duration(self):
        closed = read_google_machine_events([FIXTURE], num_servers=5)
        with_open = read_google_machine_events(
            [FIXTURE], num_servers=5, open_duration=SPAN
        )
        assert len(with_open) == N_CLOSED_DRAINS + N_OPEN_DRAINS
        extra = set(with_open) - set(closed)
        (open_event,) = extra
        assert open_event.time + open_event.duration == pytest.approx(SPAN)

    def test_machines_map_round_robin_onto_the_fleet(self):
        events = read_google_machine_events([FIXTURE], num_servers=3)
        assert all(0 <= e.server_id < 3 for e in events)
        single = read_google_machine_events([FIXTURE], num_servers=1)
        assert all(e.server_id == 0 for e in single)

    def test_subsecond_flap_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(
                [
                    mk(0, 1, 0),
                    mk(10_000_000, 1, 1),
                    mk(10_400_000, 1, 0),  # 0.4 s flap
                    mk(20_000_000, 1, 1),
                    mk(25_000_000, 1, 0),  # 5 s drain
                ]
            )
            + "\n"
        )
        events = read_google_machine_events([path], num_servers=2)
        assert len(events) == 1
        assert events[0].duration == pytest.approx(5.0)

    def test_noise_rows_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(
                [
                    "garbage",
                    mk(0, 1, 0),
                    mk(5_000_000, 1, 2),  # UPDATE: ignored
                    mk(10_000_000, 1, 1),
                    mk(70_000_000, 1, 0),
                ]
            )
            + "\n"
        )
        events = read_google_machine_events([path], num_servers=2)
        assert len(events) == 1
        assert events[0].duration == pytest.approx(60.0)

    def test_empty_input(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        assert read_google_machine_events([path], num_servers=2) == ()

    def test_out_of_order_rows_tolerated(self, tmp_path):
        # REMOVE written after its ADD in file order, earlier in time.
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join([mk(0, 1, 0), mk(90_000_000, 1, 0), mk(30_000_000, 1, 1)])
            + "\n"
        )
        events = read_google_machine_events([path], num_servers=2)
        assert len(events) == 1
        assert events[0].time == pytest.approx(30.0)
        assert events[0].duration == pytest.approx(60.0)

    def test_rejects_nonpositive_fleet(self):
        with pytest.raises(ValueError, match="num_servers"):
            read_google_machine_events([FIXTURE], num_servers=0)


def replay_scenario(machine_events=(str(FIXTURE),), compression=1.0):
    return ScenarioSpec(
        name="machine-replay",
        description="replay with recorded churn",
        workload=WorkloadSpec(
            replay=TraceReplaySpec(
                paths=(FIXTURE_TRACE,),
                machine_events=machine_events,
                time_compression=compression,
            ),
            n_train_segments=1,
        ),
    )


class TestReplayWiring:
    def test_capacity_events_come_from_the_recording(self):
        spec = replay_scenario()
        horizon = spec.horizon_for(80)
        events = spec.capacity_events(horizon)
        assert events
        assert all(e.time < horizon for e in events)
        assert all(0 <= e.server_id < spec.fleet.num_servers for e in events)

    def test_time_compression_applies_to_churn(self):
        slow = replay_scenario().capacity_events(SPAN)
        fast = replay_scenario(compression=2.0).capacity_events(SPAN)
        assert fast  # still inside the (uncompressed) horizon bound
        assert fast[0].time == pytest.approx(slow[0].time / 2.0)
        assert fast[0].duration == pytest.approx(slow[0].duration / 2.0)

    def test_machine_files_key_the_content_dict(self):
        with_churn = replay_scenario()
        without = replay_scenario(machine_events=())
        assert with_churn.content_key() != without.content_key()
        payload = with_churn.content_dict()
        assert payload["workload"]["replay"]["machine_files"]

    def test_replay_cell_runs_with_recorded_churn(self):
        from repro.scenarios.orchestrator import run_cell

        result = run_cell(replay_scenario(), "round-robin", n_jobs=60, seed=0)
        assert result["capacity_events"] > 0
        assert result["n_jobs_completed"] > 0
