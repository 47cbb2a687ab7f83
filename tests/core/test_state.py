"""Tests for repro.core.state."""

import numpy as np
import pytest

from repro.core.state import StateEncoder
from repro.sim.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.interfaces import PowerPolicy
from repro.sim.job import Job
from repro.sim.power import PowerModel


class NeverSleep(PowerPolicy):
    def on_idle(self, server, now):
        return PowerPolicy.NEVER


def make_cluster(n, initially_on=True):
    return Cluster(
        n, PowerModel(), EventQueue(), NeverSleep(), initially_on=initially_on
    )


class TestGeometry:
    def test_paper_layout_dimensions(self):
        enc = StateEncoder(30, num_resources=3, num_groups=3,
                           include_power_state=False, include_queue_state=False)
        assert enc.group_size == 10
        assert enc.per_server_dim == 3
        assert enc.group_dim == 30
        assert enc.job_dim == 4
        assert enc.state_dim == 30 * 3 + 4

    def test_extended_features_grow_dims(self):
        enc = StateEncoder(6, num_groups=2)
        assert enc.per_server_dim == 5  # 3 resources + on bit + queue
        assert enc.state_dim == 6 * 5 + 4

    def test_indivisible_groups_raise(self):
        with pytest.raises(ValueError, match="divisible"):
            StateEncoder(10, num_groups=3)

    @pytest.mark.parametrize("kwargs", [
        {"num_servers": 0},
        {"num_servers": 4, "max_duration": 0.0},
        {"num_servers": 4, "queue_scale": 0.0},
    ])
    def test_invalid_args(self, kwargs):
        kwargs.setdefault("num_groups", 1)
        with pytest.raises(ValueError):
            StateEncoder(**kwargs)


class TestEncode:
    def test_encodes_utilization_and_job(self):
        enc = StateEncoder(2, num_groups=1, include_power_state=False,
                           include_queue_state=False)
        cluster = make_cluster(2)
        cluster[0].assign(Job(0, 0.0, 100.0, (0.5, 0.2, 0.1)), 0.0)
        job = Job(1, 0.0, 3600.0, (0.3, 0.3, 0.3))
        state = enc.encode(cluster, job)
        assert state.shape == (enc.state_dim,)
        assert np.allclose(state[:3], [0.5, 0.2, 0.1])  # server 0 block
        assert np.allclose(state[3:6], 0.0)  # server 1 block
        assert np.allclose(state[6:9], [0.3, 0.3, 0.3])  # job demands
        assert state[9] == pytest.approx(0.5)  # 3600 / 7200

    def test_power_state_bit(self):
        enc = StateEncoder(2, num_groups=1, include_queue_state=False)
        cluster = make_cluster(2, initially_on=False)
        state = enc.encode(cluster, Job(0, 0.0, 60.0, (0.1, 0.1, 0.1)))
        # layout per server: [cpu, mem, disk, on]
        assert state[3] == 0.0 and state[7] == 0.0
        on_cluster = make_cluster(2, initially_on=True)
        state_on = enc.encode(on_cluster, Job(0, 0.0, 60.0, (0.1, 0.1, 0.1)))
        assert state_on[3] == 1.0

    def test_queue_feature_saturates(self):
        enc = StateEncoder(1, num_groups=1, include_power_state=False, queue_scale=2.0)
        cluster = make_cluster(1)
        for i in range(5):  # one runs, four queue (0.9 cpu each)
            cluster[0].assign(Job(i, 0.0, 100.0, (0.9, 0.1, 0.1)), 0.0)
        state = enc.encode(cluster, Job(9, 0.0, 60.0, (0.1, 0.1, 0.1)))
        assert state[3] == 1.0  # min(4 / 2, 1)

    def test_duration_clipped_at_one(self):
        enc = StateEncoder(1, num_groups=1)
        cluster = make_cluster(1)
        state = enc.encode(cluster, Job(0, 0.0, 99999.0, (0.1, 0.1, 0.1)))
        assert state[-1] == 1.0

    def test_cluster_size_mismatch_raises(self):
        enc = StateEncoder(4, num_groups=2)
        with pytest.raises(ValueError, match="servers"):
            enc.encode(make_cluster(2), Job(0, 0.0, 60.0, (0.1, 0.1, 0.1)))


class TestSplit:
    def test_split_shapes(self):
        enc = StateEncoder(6, num_groups=3)
        states = np.arange(2 * enc.state_dim, dtype=float).reshape(2, -1)
        groups, jobs = enc.split(states)
        assert groups.shape == (3, 2, enc.group_dim)
        assert jobs.shape == (2, enc.job_dim)

    def test_split_preserves_layout(self):
        enc = StateEncoder(4, num_groups=2, include_power_state=False,
                           include_queue_state=False)
        state = np.arange(enc.state_dim, dtype=float)
        groups, jobs = enc.split(state[None, :])
        assert np.allclose(groups[0][0], state[:6])
        assert np.allclose(groups[1][0], state[6:12])
        assert np.allclose(jobs[0], state[12:])

    def test_split_wrong_width_raises(self):
        enc = StateEncoder(4, num_groups=2)
        with pytest.raises(ValueError):
            enc.split(np.zeros((1, 7)))


class TestActionGroups:
    def test_consecutive_servers_form_each_group(self):
        enc = StateEncoder(6, num_groups=3)
        assert enc.group_size == 2
        assert [a // enc.group_size for a in range(6)] == [0, 0, 1, 1, 2, 2]
        assert [a % enc.group_size for a in range(6)] == [0, 1, 0, 1, 0, 1]
