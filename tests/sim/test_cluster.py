"""Tests for repro.sim.cluster."""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.interfaces import PowerPolicy
from repro.sim.job import Job
from repro.sim.power import PowerModel
from repro.sim.server import PowerState


class NeverSleep(PowerPolicy):
    def on_idle(self, server, now):
        return PowerPolicy.NEVER


def make_cluster(n=3, initially_on=True, policies=None):
    events = EventQueue()
    cluster = Cluster(
        num_servers=n,
        power_model=PowerModel(),
        events=events,
        policies=policies if policies is not None else NeverSleep(),
        initially_on=initially_on,
    )
    return cluster, events


class TestConstruction:
    def test_len_and_indexing(self):
        cluster, _ = make_cluster(4)
        assert len(cluster) == 4
        assert cluster[2].server_id == 2

    def test_single_policy_shared(self):
        policy = NeverSleep()
        cluster, _ = make_cluster(3, policies=policy)
        assert all(s.policy is policy for s in cluster.servers)

    def test_per_server_policies(self):
        policies = [NeverSleep() for _ in range(3)]
        cluster, _ = make_cluster(3, policies=policies)
        assert [s.policy for s in cluster.servers] == policies

    def test_policy_count_mismatch_raises(self):
        events = EventQueue()
        with pytest.raises(ValueError, match="policies"):
            Cluster(3, PowerModel(), events, [NeverSleep()] * 2)

    def test_zero_servers_raises(self):
        events = EventQueue()
        with pytest.raises(ValueError):
            Cluster(0, PowerModel(), events, NeverSleep())


class TestAggregates:
    def test_total_power_all_idle(self):
        cluster, _ = make_cluster(3)
        assert cluster.ledger.power.sum() == pytest.approx(3 * 87.0)

    def test_total_power_all_sleeping(self):
        cluster, _ = make_cluster(3, initially_on=False)
        assert cluster.ledger.power.sum() == 0.0

    def test_total_energy_after_sync(self):
        cluster, _ = make_cluster(2)
        cluster.sync(100.0)
        assert cluster.total_energy() == pytest.approx(2 * 87.0 * 100.0)

    def test_jobs_in_system(self):
        cluster, events = make_cluster(2)
        cluster[0].assign(Job(1, 0.0, 50.0, (0.5, 0.1, 0.1)), 0.0)
        cluster[0].assign(Job(2, 0.0, 50.0, (0.9, 0.1, 0.1)), 0.0)  # queues
        assert cluster.jobs_in_system() == 2

    def test_active_and_sleeping_counts(self):
        cluster, _ = make_cluster(3, initially_on=False)

        def sleeping():
            return sum(s.state is PowerState.SLEEP for s in cluster.servers)

        assert sleeping() == 3
        assert cluster.ledger.on.sum() == 0
        cluster[0].assign(Job(1, 0.0, 50.0, (0.5, 0.1, 0.1)), 0.0)
        assert cluster[0].state is PowerState.BOOTING
        assert sleeping() == 2
        assert cluster.ledger.on.sum() == 0


class TestObservation:
    def test_utilization_matrix_shape_and_values(self):
        cluster, _ = make_cluster(3)
        cluster[1].assign(Job(1, 0.0, 50.0, (0.5, 0.2, 0.1)), 0.0)
        util = cluster.ledger.util
        assert util.shape == (3, 3)
        assert np.allclose(util[1], [0.5, 0.2, 0.1])
        assert np.all(util[0] == 0.0)

    def test_power_state_vector(self):
        cluster, _ = make_cluster(2, initially_on=False)
        cluster[0].assign(Job(1, 0.0, 50.0, (0.5, 0.1, 0.1)), 0.0)
        vec = cluster.ledger.on
        # Booting is not "on" (cannot execute yet).
        assert list(vec) == [0.0, 0.0]

    def test_queue_vector(self):
        cluster, _ = make_cluster(2)
        cluster[0].assign(Job(1, 0.0, 50.0, (0.8, 0.1, 0.1)), 0.0)
        cluster[0].assign(Job(2, 0.0, 50.0, (0.8, 0.1, 0.1)), 0.0)
        assert list(cluster.ledger.queue) == [1.0, 0.0]

    def test_server_rows_are_views_of_the_utilization_matrix(self):
        cluster, _ = make_cluster(2)
        cluster[1].assign(Job(1, 0.0, 50.0, (0.5, 0.2, 0.1)), 0.0)
        assert np.shares_memory(cluster[1].used, cluster.ledger.util)
        assert np.array_equal(cluster.ledger.util[1], cluster[1].used)

    def test_state_views_are_the_ledger_rows(self):
        cluster, _ = make_cluster(2)
        util, on, queue = cluster.state_views()
        ledger = cluster.ledger
        assert util is ledger.util and on is ledger.on and queue is ledger.queue
