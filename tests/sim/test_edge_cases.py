"""Edge-case and failure-injection tests for the simulator."""

import pytest

from repro.core.baselines import AlwaysOnPolicy, ImmediateSleepPolicy, RoundRobinBroker
from repro.sim.engine import build_simulation
from repro.sim.interfaces import PowerPolicy
from repro.sim.job import Job
from repro.sim.power import PowerModel
from repro.sim.server import PowerState


def job(jid, arrival, duration=10.0, cpu=0.5):
    return Job(jid, arrival, duration, (cpu, 0.1, 0.1))


class TestZeroTransitionTimes:
    def test_instant_boot_and_shutdown(self):
        pm = PowerModel(t_on=0.0, t_off=0.0)
        engine = build_simulation(
            1, RoundRobinBroker(), ImmediateSleepPolicy(), power_model=pm
        )
        jobs = [job(0, 0.0), job(1, 100.0)]
        result = engine.run(jobs)
        # No boot delay: latency equals duration.
        assert [j.latency for j in jobs] == pytest.approx([10.0, 10.0])
        # No transition energy either: only the run intervals burn power.
        expected = 2 * 10.0 * pm.active_power(0.5)
        assert result.cluster.total_energy() == pytest.approx(expected)


class TestSimultaneousEvents:
    def test_arrival_at_exact_timeout_expiry(self):
        """A job arriving at the same instant the DPM timeout fires: the
        timeout event was scheduled first, so it pops first and wins —
        the job must still be served correctly after the sleep cycle."""

        class Fixed30(PowerPolicy):
            def on_idle(self, server, now):
                return 30.0

        engine = build_simulation(1, RoundRobinBroker(), Fixed30())
        jobs = [job(0, 0.0, duration=10.0), job(1, 40.0)]  # idle at 10, timeout at 40
        result = engine.run(jobs)
        assert result.metrics.n_completed == 2
        assert jobs[1].completed

    def test_arrival_during_timeout_same_tick_as_finish(self):
        """Back-to-back zero-gap jobs: finish and next arrival at the same
        timestamp must not double-trigger idle epochs."""
        engine = build_simulation(1, RoundRobinBroker(), ImmediateSleepPolicy())
        jobs = [job(0, 0.0, duration=10.0), job(1, 10.0, duration=10.0)]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 2

    def test_many_jobs_at_same_instant(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = [job(i, 0.0, duration=5.0, cpu=0.2) for i in range(20)]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 20


class TestSaturation:
    def test_full_size_jobs_serialize(self):
        # Each job needs the whole server: strictly one at a time.
        engine = build_simulation(
            1, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = [Job(i, 0.0, 10.0, (1.0, 1.0, 1.0)) for i in range(3)]
        engine.run(jobs)
        starts = sorted(j.start_time for j in jobs)
        assert starts == [0.0, 10.0, 20.0]

    def test_massive_burst_completes(self):
        engine = build_simulation(
            2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        jobs = [job(i, float(i) * 0.001, duration=1.0, cpu=0.9) for i in range(500)]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 500
        # Utilization can never exceed capacity.
        for server in result.cluster.servers:
            assert server.cpu_utilization <= 1.0 + 1e-9


class TestShutdownRace:
    def test_burst_during_shutdown_single_reboot(self):
        engine = build_simulation(1, RoundRobinBroker(), ImmediateSleepPolicy())
        jobs = [job(0, 0.0, duration=10.0)]
        # Server: boot 0-30, run 30-40, shutdown 40-70. Three jobs land
        # mid-shutdown; exactly one reboot must serve them all.
        jobs += [job(i, 50.0 + i, duration=5.0, cpu=0.2) for i in (1, 2, 3)]
        result = engine.run(jobs)
        assert result.metrics.n_completed == 4
        assert result.cluster[0].wakeups == 2

    def test_idle_forever_queue_empty(self):
        engine = build_simulation(
            1, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
        )
        result = engine.run([job(0, 0.0)])
        assert result.cluster[0].state is PowerState.IDLE


class TestMisbehavingPolicies:
    def test_nan_timeout_rejected(self):
        class NanPolicy(PowerPolicy):
            def on_idle(self, server, now):
                return float("nan")

        engine = build_simulation(1, RoundRobinBroker(), NanPolicy())
        with pytest.raises(ValueError, match="timeout"):
            engine.run([job(0, 0.0)])

    def test_policy_exception_propagates(self):
        class Exploding(PowerPolicy):
            def on_idle(self, server, now):
                raise RuntimeError("boom")

        engine = build_simulation(1, RoundRobinBroker(), Exploding())
        with pytest.raises(RuntimeError, match="boom"):
            engine.run([job(0, 0.0)])


class TestAccountingPrecision:
    def test_long_run_energy_matches_closed_form(self):
        # 100 sequential saturating jobs on one always-on server: energy
        # is exactly run-time at P(0.5) plus idle gaps at P(0).
        pm = PowerModel()
        engine = build_simulation(
            1, RoundRobinBroker(), AlwaysOnPolicy(), power_model=pm, initially_on=True
        )
        jobs = [job(i, i * 20.0, duration=10.0) for i in range(100)]
        result = engine.run(jobs)
        run_energy = 100 * 10.0 * pm.active_power(0.5)
        idle_energy = (result.final_time - 1000.0) * pm.active_power(0.0)
        assert result.cluster.total_energy() == pytest.approx(
            run_energy + idle_energy, rel=1e-12
        )
