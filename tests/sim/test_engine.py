"""Integration tests for repro.sim.engine."""

import pytest

from repro.core.baselines import AlwaysOnPolicy, ImmediateSleepPolicy, RoundRobinBroker
from repro.sim.engine import build_simulation
from repro.sim.interfaces import Broker
from repro.sim.job import Job


def jobs_burst(n, spacing=10.0, duration=50.0, cpu=0.3):
    return [Job(i, i * spacing, duration, (cpu, 0.1, 0.1)) for i in range(n)]


class TestRun:
    def test_all_jobs_complete(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = jobs_burst(10)
        result = engine.run(jobs)
        assert result.metrics.n_completed == 10
        assert all(j.completed for j in jobs)

    def test_round_robin_alternates(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = jobs_burst(4)
        engine.run(jobs)
        assert [j.server_id for j in jobs] == [0, 1, 0, 1]

    def test_no_wait_latency_equals_duration(self):
        engine = build_simulation(
            4, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = jobs_burst(4, spacing=100.0, duration=50.0, cpu=0.2)
        engine.run(jobs)
        assert [j.latency for j in jobs] == pytest.approx([50.0] * 4)

    def test_generator_stream_accepted(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        result = engine.run(iter(jobs_burst(5)))
        assert result.metrics.n_completed == 5

    def test_unsorted_trace_raises(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        bad = [
            Job(0, 100.0, 10.0, (0.1, 0.1, 0.1)),
            Job(1, 50.0, 10.0, (0.1, 0.1, 0.1)),
        ]
        with pytest.raises(ValueError, match="sorted"):
            engine.run(bad)

    def test_broker_out_of_range_raises(self):
        class BadBroker(Broker):
            def select_server(self, job, cluster, now):
                return 99

        engine = build_simulation(2, BadBroker(), AlwaysOnPolicy(), initially_on=True)
        with pytest.raises(ValueError, match="outside"):
            engine.run(jobs_burst(1))

    def test_empty_trace(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        result = engine.run([])
        assert result.metrics.n_completed == 0

    def test_final_time_covers_last_completion(self):
        engine = build_simulation(
            1, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = [Job(0, 0.0, 123.0, (0.5, 0.1, 0.1))]
        result = engine.run(jobs)
        assert result.final_time >= 123.0


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        def run_once():
            engine = build_simulation(
                3, RoundRobinBroker(), ImmediateSleepPolicy(), initially_on=False
            )
            return engine.run(jobs_burst(20))

        a, b = run_once(), run_once()
        assert a.total_energy_kwh == b.total_energy_kwh
        assert a.metrics.acc_latency == b.metrics.acc_latency
        assert a.final_time == b.final_time


class TestEnergyConsistency:
    def test_metrics_energy_matches_cluster(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        result = engine.run(jobs_burst(6))
        cluster_kwh = result.cluster.total_energy() / 3.6e6
        assert result.total_energy_kwh == pytest.approx(cluster_kwh)

    def test_always_on_energy_floor(self):
        # Two always-on servers must burn at least idle power for the
        # whole makespan.
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        result = engine.run(jobs_burst(6))
        floor = 2 * 87.0 * result.final_time / 3.6e6
        assert result.total_energy_kwh >= floor * 0.999

    def test_sleeping_saves_energy(self):
        jobs = jobs_burst(6, spacing=500.0, duration=50.0)
        on = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        off = build_simulation(
            2, RoundRobinBroker(), ImmediateSleepPolicy(), initially_on=False
        )
        r_on = on.run([j.copy() for j in jobs])
        r_off = off.run([j.copy() for j in jobs])
        assert r_off.total_energy_kwh < r_on.total_energy_kwh
