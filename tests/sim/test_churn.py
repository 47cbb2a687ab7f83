"""Capacity churn: graceful drains, restores, and heterogeneous fleets."""

import pytest

from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.sim.churn import CapacityEvent, schedule_capacity_events
from repro.sim.engine import build_simulation
from repro.sim.job import Job
from repro.sim.power import PowerModel


def _engine(num_servers=2, power_model=None, capacity_events=(), initially_on=True):
    return build_simulation(
        num_servers=num_servers,
        broker=RoundRobinBroker(),
        policies=AlwaysOnPolicy(),
        power_model=power_model,
        initially_on=initially_on,
        capacity_events=capacity_events,
    )


class TestCapacityEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityEvent(time=-1.0, server_id=0, duration=10.0)
        with pytest.raises(ValueError):
            CapacityEvent(time=0.0, server_id=0, duration=0.0)
        with pytest.raises(ValueError):
            CapacityEvent(time=0.0, server_id=0, duration=10.0, fraction=1.0)

    def test_out_of_range_server_rejected(self):
        engine = _engine(num_servers=2)
        with pytest.raises(ValueError, match="2 servers"):
            schedule_capacity_events(
                engine.cluster, [CapacityEvent(time=0.0, server_id=5, duration=1.0)]
            )


class TestServerSetCapacity:
    def test_fraction_validated(self):
        engine = _engine()
        with pytest.raises(ValueError):
            engine.cluster[0].set_capacity(0.0, 1.5)

    def test_running_jobs_survive_a_drain(self):
        """A drain is graceful: the in-flight job finishes normally."""
        events = [CapacityEvent(time=10.0, server_id=0, duration=100.0)]
        engine = _engine(num_servers=1, capacity_events=events)
        jobs = [Job(0, arrival_time=0.0, duration=50.0, resources=(0.5, 0.2, 0.1))]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 1
        # The job ran start-to-finish across the drain boundary.
        assert result.metrics.acc_latency == pytest.approx(50.0)

    def test_queued_job_waits_for_restore(self):
        """Work arriving at a fully drained server waits out the drain."""
        events = [CapacityEvent(time=5.0, server_id=0, duration=100.0)]
        engine = _engine(num_servers=1, capacity_events=events)
        jobs = [Job(0, arrival_time=20.0, duration=10.0, resources=(0.5, 0.2, 0.1))]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 1
        # Arrived at 20, capacity back at 105, 10 s of service => ~95 s latency.
        assert result.metrics.acc_latency == pytest.approx(105.0 - 20.0 + 10.0)
        assert engine.cluster[0].capacity_fraction == 1.0  # restore happened

    def test_partial_drain_limits_concurrency(self):
        """At 50% capacity only one 0.4-CPU job fits at a time."""
        events = [
            CapacityEvent(time=0.0, server_id=0, duration=1000.0, fraction=0.5)
        ]
        engine = _engine(num_servers=1, capacity_events=events)
        jobs = [
            Job(0, arrival_time=1.0, duration=30.0, resources=(0.4, 0.1, 0.1)),
            Job(1, arrival_time=1.0, duration=30.0, resources=(0.4, 0.1, 0.1)),
        ]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 2
        # Second job serialized behind the first: latency 30 vs 60.
        assert result.metrics.acc_latency == pytest.approx(30.0 + 60.0)


class TestHeterogeneousFleet:
    def test_per_server_power_models(self):
        cheap = PowerModel(idle_power=10.0, peak_power=20.0)
        dear = PowerModel(idle_power=100.0, peak_power=200.0)
        engine = _engine(num_servers=2, power_model=[cheap, dear])
        assert engine.cluster[0].power_model is cheap
        assert engine.cluster[1].power_model is dear
        assert engine.cluster.power_models == (cheap, dear)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="power models"):
            _engine(num_servers=3, power_model=[PowerModel()] * 2)

    def test_idle_power_reflects_model_mix(self):
        cheap = PowerModel(idle_power=10.0, peak_power=20.0)
        dear = PowerModel(idle_power=100.0, peak_power=200.0)
        hetero = _engine(num_servers=2, power_model=[cheap, dear])
        # Both servers idle: cluster draw is the sum of the two idle levels.
        assert hetero.cluster.ledger.power.sum() == pytest.approx(110.0)

    def test_single_model_still_homogeneous(self):
        model = PowerModel(idle_power=10.0, peak_power=20.0)
        engine = _engine(num_servers=3, power_model=model)
        assert engine.cluster.power_models == (model, model, model)
        assert engine.cluster.ledger.power.sum() == pytest.approx(30.0)
