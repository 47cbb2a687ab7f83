"""Tests for repro.sim.server: the paper's Figs. 3 and 4 semantics.

Scenario tests construct a single server with a scripted DPM policy and
assert exact start/finish times, power-state transitions, and energy /
queue-time integrals.
"""

import math

import numpy as np
import pytest

from repro.sim.events import EventQueue
from repro.sim.interfaces import PowerPolicy
from repro.sim.job import Job
from repro.sim.power import PowerModel
from repro.sim.server import PowerState, Server


class ScriptedPolicy(PowerPolicy):
    """Returns queued timeout values and records every decision epoch."""

    def __init__(self, timeouts=()):
        self.queue = list(timeouts)
        self.epochs = []
        self.assigned = []

    def on_idle(self, server, now):
        self.epochs.append(("idle", now))
        return self.queue.pop(0) if self.queue else PowerPolicy.NEVER

    def on_active(self, server, now, from_sleep):
        self.epochs.append(("wake_sleep" if from_sleep else "wake_idle", now))

    def on_job_assigned(self, server, job, now):
        self.assigned.append((job.job_id, now))


def make_server(policy=None, initially_on=True, power_model=None, **kwargs):
    events = EventQueue()
    server = Server(
        server_id=0,
        power_model=power_model or PowerModel(),
        events=events,
        policy=policy or ScriptedPolicy(),
        initially_on=initially_on,
        **kwargs,
    )
    return server, events


def job(jid, arrival, duration, cpu, mem=0.1, disk=0.1):
    return Job(jid, arrival, duration, (cpu, mem, disk))


class TestFigure3Fcfs:
    """Fig. 3: jobs of 50/40/40 % CPU; the third waits for the first."""

    def test_head_of_line_blocking_and_latencies(self):
        policy = ScriptedPolicy()
        server, events = make_server(policy)
        j1 = job(1, 0.0, 100.0, 0.5)
        j2 = job(2, 10.0, 100.0, 0.4)
        j3 = job(3, 20.0, 100.0, 0.4)
        for j in (j1, j2, j3):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        # j1 and j2 fit together (0.9 CPU); j3 (0.4) must wait for j1's
        # completion at t=100.
        assert j1.start_time == 0.0 and j2.start_time == 10.0
        assert j3.start_time == 100.0
        assert j3.latency == pytest.approx(180.0)  # waited 80 + ran 100
        assert j1.latency == pytest.approx(100.0)

    def test_fcfs_order_enforced_even_if_later_job_fits(self):
        # Head needs 0.8 CPU and blocks; a small job behind it must NOT
        # jump the queue (strict FCFS, per Sec. III).
        server, events = make_server()
        j1 = job(1, 0.0, 100.0, 0.5)
        j_big = job(2, 1.0, 50.0, 0.8)
        j_small = job(3, 2.0, 10.0, 0.1)
        for j in (j1, j_big, j_small):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        assert j_big.start_time == 100.0
        assert j_small.start_time == 100.0  # released together with head

    def test_memory_dimension_blocks_too(self):
        server, events = make_server()
        j1 = Job(1, 0.0, 100.0, (0.1, 0.9, 0.1))
        j2 = Job(2, 1.0, 50.0, (0.1, 0.5, 0.1))
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        assert j2.start_time == 100.0

    def test_utilization_tracks_running_jobs(self):
        server, events = make_server()
        j1 = job(1, 0.0, 100.0, 0.5)
        server.assign(j1, 0.0)
        assert server.cpu_utilization == pytest.approx(0.5)
        events.run_until_empty()
        assert server.cpu_utilization == 0.0


class TestBootDelay:
    def test_job_to_sleeping_server_waits_ton(self):
        policy = ScriptedPolicy()
        server, events = make_server(policy, initially_on=False)
        j1 = job(1, 0.0, 100.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        assert j1.start_time == pytest.approx(30.0)  # Ton = 30
        assert j1.latency == pytest.approx(130.0)
        assert ("wake_sleep", 0.0) in policy.epochs
        assert server.wakeups == 1

    def test_jobs_arriving_during_boot_queue_up(self):
        server, events = make_server(initially_on=False)
        j1 = job(1, 0.0, 100.0, 0.3)
        j2 = job(2, 10.0, 100.0, 0.3)
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        assert j1.start_time == pytest.approx(30.0)
        assert j2.start_time == pytest.approx(30.0)
        assert server.wakeups == 1  # second arrival did not re-trigger boot


class TestFigure4PowerManagement:
    """Fig. 4: ad-hoc versus timeout DPM around a 2-job gap."""

    def _run(self, timeout, gap_arrival, states=None):
        """Run the two jobs; ``states`` collects ``(state, ledger on row)``
        after every state assignment."""
        policy = ScriptedPolicy(timeouts=[timeout, PowerPolicy.NEVER])
        server, events = make_server(policy, initially_on=False)
        if states is not None:
            refresh = server._refresh

            def recording_refresh():
                refresh()
                states.append((server.state, server._ledger.on[0]))

            server._refresh = recording_refresh
            recording_refresh()
        j1 = job(1, 0.0, 50.0, 0.5)
        j2 = job(2, gap_arrival, 50.0, 0.7)
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        return server, policy, j1, j2

    def test_ad_hoc_pays_double_transition(self):
        # j1 runs 30..80; immediate shutdown 80..110; j2 arrives at 90
        # (during shutdown) -> waits for sleep at 110, boots 110..140.
        states = []
        server, policy, j1, j2 = self._run(timeout=0.0, gap_arrival=90.0, states=states)
        assert j1.start_time == pytest.approx(30.0)
        assert j2.start_time == pytest.approx(140.0)
        assert j2.latency == pytest.approx(50.0 + 50.0)  # waited 50, ran 50
        assert server.wakeups == 2
        # The cycle passes through every power state; only ACTIVE and
        # IDLE are on, in ``is_on`` and in the ledger row alike.
        assert {state for state, _ in states} == set(PowerState)
        for state, on in states:
            expected = state in (PowerState.ACTIVE, PowerState.IDLE)
            assert state.is_on is expected
            assert on == (1.0 if expected else 0.0)

    def test_dpm_timeout_serves_immediately(self):
        # Same arrivals with a 60 s timeout: server still idle at t=90,
        # so j2 starts immediately (t'4 < t4 in the paper's notation).
        server, policy, j1, j2 = self._run(timeout=60.0, gap_arrival=90.0)
        assert j2.start_time == pytest.approx(90.0)
        assert j2.latency == pytest.approx(50.0)
        assert server.wakeups == 1
        assert ("wake_idle", 90.0) in policy.epochs

    def test_timeout_expires_then_sleeps(self):
        server, policy, j1, j2 = self._run(timeout=60.0, gap_arrival=400.0)
        # Idle 80..140, shutdown 140..170, sleep until 400, boot, start 430.
        assert j2.start_time == pytest.approx(430.0)
        assert server.wakeups == 2

    def test_infinite_timeout_never_sleeps(self):
        server, policy, j1, j2 = self._run(timeout=math.inf, gap_arrival=400.0)
        assert j2.start_time == pytest.approx(400.0)
        assert server.wakeups == 1


    def test_infinite_timeout_schedules_nothing(self):
        # math.inf is legal only as a policy timeout, and it is never
        # turned into an event.
        server, events = make_server(ScriptedPolicy([math.inf]))
        server.assign(job(1, 0.0, 50.0, 0.5), 0.0)
        events.run_until_empty()
        assert server.state is PowerState.IDLE
        assert server._timeout_event is None
        assert len(events) == 0 and events.now == 50.0


class TestEnergyAccounting:
    def test_idle_energy_exact(self):
        server, events = make_server()
        server.finalize(100.0)
        assert server.energy_joules == pytest.approx(87.0 * 100.0)

    def test_sleep_consumes_nothing(self):
        server, events = make_server(initially_on=False)
        server.finalize(1000.0)
        assert server.energy_joules == 0.0

    def test_single_job_energy_breakdown(self):
        # Boot 0..30 @145 W, run 30..130 @P(0.5), idle forever after.
        policy = ScriptedPolicy(timeouts=[PowerPolicy.NEVER])
        server, events = make_server(policy, initially_on=False)
        j1 = job(1, 0.0, 100.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        server.finalize(200.0)
        pm = PowerModel()
        expected = 30 * 145.0 + 100 * pm.active_power(0.5) + 70 * 87.0
        assert server.energy_joules == pytest.approx(expected)

    def test_full_cycle_energy(self):
        # Boot 30 + run 100 + immediate shutdown 30 + sleep.
        policy = ScriptedPolicy(timeouts=[0.0])
        server, events = make_server(policy, initially_on=False)
        j1 = job(1, 0.0, 100.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        server.finalize(500.0)
        pm = PowerModel()
        expected = 30 * 145.0 + 100 * pm.active_power(0.5) + 30 * 145.0
        assert server.energy_joules == pytest.approx(expected)
        assert server.state is PowerState.SLEEP

    def test_account_idempotent(self):
        server, events = make_server()
        server.account(50.0)
        first = server.energy_joules
        server.account(50.0)
        assert server.energy_joules == first

    def test_time_backwards_raises(self):
        server, events = make_server()
        server.account(50.0)
        with pytest.raises(RuntimeError):
            server.account(40.0)

    def test_custom_transition_power_used(self):
        pm = PowerModel(transition_power=100.0)
        policy = ScriptedPolicy(timeouts=[PowerPolicy.NEVER])
        server, events = make_server(policy, initially_on=False, power_model=pm)
        j1 = job(1, 0.0, 10.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        server.finalize(40.0)  # boot 0..30 @100 W, run 30..40
        expected = 30 * 100.0 + 10 * pm.active_power(0.5)
        assert server.energy_joules == pytest.approx(expected)


class TestIntegrals:
    def test_queue_integral_counts_waiting_only(self):
        server, events = make_server()
        j1 = job(1, 0.0, 100.0, 0.8)
        j2 = job(2, 0.0, 50.0, 0.8)  # waits 100 s behind j1
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        server.finalize(events.now)
        assert server.queue_integral == pytest.approx(100.0)
        # system integral: j1 in system 100 s + j2 in system 150 s.
        assert server.system_integral == pytest.approx(250.0)

    def test_overload_integral_above_threshold(self):
        server, events = make_server(overload_threshold=0.9)
        j1 = job(1, 0.0, 100.0, 0.95)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        server.finalize(100.0)
        assert server.overload_integral == pytest.approx(0.05 * 100.0, rel=1e-6)

    def test_no_overload_below_threshold(self):
        server, events = make_server(overload_threshold=0.9)
        j1 = job(1, 0.0, 100.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        server.finalize(200.0)
        assert server.overload_integral == 0.0


class TestPolicyInterface:
    def test_idle_entry_is_decision_epoch(self):
        policy = ScriptedPolicy(timeouts=[PowerPolicy.NEVER])
        server, events = make_server(policy)
        j1 = job(1, 0.0, 100.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.run_until_empty()
        # Arrival at an idle server is decision epoch 2; the queue
        # draining at t=100 is epoch 1.
        assert policy.epochs == [("wake_idle", 0.0), ("idle", 100.0)]
        assert server.idle_entries == 1

    def test_arrival_during_timeout_cancels_shutdown(self):
        policy = ScriptedPolicy(timeouts=[60.0, PowerPolicy.NEVER])
        server, events = make_server(policy)
        j1 = job(1, 0.0, 10.0, 0.5)
        j2 = job(2, 30.0, 10.0, 0.5)  # within the 60 s timeout from t=10
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        assert server.wakeups == 0
        assert j2.start_time == pytest.approx(30.0)

    def test_invalid_timeout_raises(self):
        class BadPolicy(ScriptedPolicy):
            def on_idle(self, server, now):
                return -5.0

        server, events = make_server(BadPolicy())
        j1 = job(1, 0.0, 10.0, 0.5)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        with pytest.raises(ValueError, match="timeout"):
            events.run_until_empty()

    def test_on_job_assigned_called_every_assignment(self):
        policy = ScriptedPolicy(timeouts=[PowerPolicy.NEVER] * 5)
        server, events = make_server(policy)
        for i in range(4):
            events.schedule(
                float(i),
                lambda t, i=i: server.assign(job(i, float(i), 5.0, 0.1), t),
            )
        events.run_until_empty()
        assert [jid for jid, _ in policy.assigned] == [0, 1, 2, 3]

    def test_counters(self):
        policy = ScriptedPolicy(timeouts=[0.0, PowerPolicy.NEVER])
        server, events = make_server(policy, initially_on=False)
        j1 = job(1, 0.0, 10.0, 0.5)
        j2 = job(2, 500.0, 10.0, 0.5)
        for j in (j1, j2):
            events.schedule(j.arrival_time, lambda t, j=j: server.assign(j, t))
        events.run_until_empty()
        assert server.jobs_assigned == 2
        assert server.jobs_completed == 2
        assert server.idle_entries == 2
        assert server.wakeups == 2


class TestValidation:
    def test_invalid_overload_threshold(self):
        with pytest.raises(ValueError):
            make_server(overload_threshold=0.0)

    def test_invalid_num_resources(self):
        with pytest.raises(ValueError):
            make_server(num_resources=0)

    def test_fits_and_remaining(self):
        server, events = make_server()
        j1 = job(1, 0.0, 100.0, 0.6)
        server.assign(j1, 0.0)
        assert server.fits(job(2, 0.0, 10.0, 0.4))
        assert not server.fits(job(3, 0.0, 10.0, 0.5))
        assert np.allclose(server.remaining(), [0.4, 0.9, 0.9])


class TestCapacityVsKill:
    """Graceful drains never kill work; ``kill_job`` is the forced path."""

    def test_capacity_drop_below_running_demand_never_kills(self):
        # A 0.6-CPU job is running; capacity drops to 0.3 (below the
        # job's demand). The drain is graceful: the job runs to its
        # normal completion and ``used`` may exceed capacity meanwhile.
        server, events = make_server()
        j1 = job(1, 0.0, 100.0, 0.6)
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.schedule(10.0, lambda t: server.set_capacity(t, 0.3))
        events.run_until_empty()
        assert server.jobs_completed == 1
        assert j1.finish_time == pytest.approx(100.0)

    def test_drained_capacity_holds_queue_until_restore(self):
        server, events = make_server()
        j1 = job(1, 0.0, 50.0, 0.5)
        j2 = job(2, 60.0, 50.0, 0.5)  # arrives while drained
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.schedule(55.0, lambda t: server.set_capacity(t, 0.0))
        events.schedule(60.0, lambda t: server.assign(j2, t))
        events.schedule(200.0, lambda t: server.set_capacity(t, 1.0))
        events.run_until_empty()
        assert j1.finish_time == pytest.approx(50.0)
        assert j2.start_time == pytest.approx(200.0)  # waited for restore

    def test_kill_job_releases_resources_and_starts_queue(self):
        # Forced eviction: the victim's resources come back immediately
        # and the queued job starts — unlike the graceful-drain path.
        # kill_job's contract says the caller cancels/supersedes the
        # victim's finish event (the fault runtime owns the handles), so
        # this test stops the drain before the stale finish at t=1000.
        server, events = make_server()
        j1 = job(1, 0.0, 1000.0, 0.8)
        j2 = job(2, 1.0, 10.0, 0.5)  # blocked behind j1
        events.schedule(0.0, lambda t: server.assign(j1, t))
        events.schedule(1.0, lambda t: server.assign(j2, t))
        events.schedule(5.0, lambda t: server.kill_job(j1, t))
        events.run_until_empty(max_events=4)  # ...through j2's finish at 15
        assert j2.start_time == pytest.approx(5.0)
        assert j2.finish_time == pytest.approx(15.0)
        assert server.jobs_completed == 1  # the kill was not a completion
        assert server.running.get(1) is None
        assert np.all(server.used <= 1e-9)

    def test_take_pending_drains_queue(self):
        server, events = make_server()
        j1 = job(1, 0.0, 1000.0, 0.9)
        j2 = job(2, 1.0, 10.0, 0.5)
        j3 = job(3, 2.0, 10.0, 0.5)
        server.assign(j1, 0.0)
        server.assign(j2, 1.0)
        server.assign(j3, 2.0)
        drained = server.take_pending(3.0)
        assert [j.job_id for j in drained] == [2, 3]
        assert not server.pending
