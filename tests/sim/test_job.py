"""Tests for repro.sim.job."""

import pytest

from repro.sim.job import CPU, DISK, MEM, Job


class TestValidation:
    def test_valid_job(self):
        job = Job(1, 10.0, 60.0, (0.5, 0.2, 0.1))
        assert job.cpu == 0.5

    def test_negative_arrival_raises(self):
        with pytest.raises(ValueError, match="arrival"):
            Job(1, -1.0, 60.0, (0.5,))

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_nonpositive_duration_raises(self, duration):
        with pytest.raises(ValueError, match="duration"):
            Job(1, 0.0, duration, (0.5,))

    @pytest.mark.parametrize(
        "arrival, duration",
        [
            (float("nan"), 60.0),
            (float("inf"), 60.0),
            (0.0, float("nan")),
            (0.0, float("inf")),
            (float("nan"), float("inf")),
        ],
    )
    def test_non_finite_times_raise(self, arrival, duration):
        with pytest.raises(ValueError, match="finite"):
            Job(0, arrival, duration, (0.5, 0.1, 0.1))

    def test_empty_resources_raise(self):
        with pytest.raises(ValueError, match="resource"):
            Job(1, 0.0, 60.0, ())

    @pytest.mark.parametrize("demand", [0.0, -0.1, 1.5])
    def test_out_of_range_demand_raises(self, demand):
        with pytest.raises(ValueError):
            Job(1, 0.0, 60.0, (demand,))

    def test_full_server_demand_allowed(self):
        Job(1, 0.0, 60.0, (1.0, 1.0, 1.0))

    def test_resource_index_constants(self):
        assert (CPU, MEM, DISK) == (0, 1, 2)


class TestRuntime:
    def test_latency_includes_wait(self):
        job = Job(1, 100.0, 50.0, (0.5,))
        job.start_time = 130.0
        job.finish_time = 180.0
        assert job.latency == 80.0
        assert job.wait_time == 30.0

    def test_latency_before_completion_raises(self):
        job = Job(1, 0.0, 50.0, (0.5,))
        with pytest.raises(RuntimeError):
            _ = job.latency

    def test_wait_before_start_raises(self):
        job = Job(1, 0.0, 50.0, (0.5,))
        with pytest.raises(RuntimeError):
            _ = job.wait_time

    def test_completed_flag(self):
        job = Job(1, 0.0, 50.0, (0.5,))
        assert not job.completed
        job.finish_time = 50.0
        assert job.completed

    def test_copy_is_fresh(self):
        job = Job(1, 0.0, 50.0, (0.5, 0.2, 0.1))
        job.finish_time = 99.0
        twin = job.copy()
        assert twin.job_id == 1 and twin.resources == (0.5, 0.2, 0.1)
        assert not twin.completed

    def test_runtime_fields_not_compared(self):
        a = Job(1, 0.0, 50.0, (0.5,))
        b = Job(1, 0.0, 50.0, (0.5,))
        b.finish_time = 10.0
        assert a == b
