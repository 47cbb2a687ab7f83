"""Tests for repro.core.local_tier: the RL power manager (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.config import LocalTierConfig, PredictorConfig
from repro.core.local_tier import IDLE, RLPowerPolicy, WAKE_SLEEP
from repro.sim.events import EventQueue
from repro.sim.job import Job
from repro.sim.power import PowerModel
from repro.sim.server import Server


def make_config(**kwargs):
    kwargs.setdefault("predictor", PredictorConfig(lookback=3))
    kwargs.setdefault("timeouts", (0.0, 60.0))
    return LocalTierConfig(**kwargs)


def make_policy(**kwargs):
    return RLPowerPolicy(make_config(**kwargs), rng=np.random.default_rng(0))


def make_server(policy, initially_on=True):
    events = EventQueue()
    server = Server(0, PowerModel(), events, policy, initially_on=initially_on)
    return server, events


def job(jid, arrival, duration=10.0, cpu=0.5):
    return Job(jid, arrival, duration, (cpu, 0.1, 0.1))


class TestDecisionEpochs:
    def test_on_idle_returns_timeout_from_action_set(self):
        policy = make_policy()
        server, events = make_server(policy)
        server.assign(job(1, 0.0), 0.0)
        events.run_until_empty()  # job finishes at 10 -> idle epoch
        assert policy.decision_epochs >= 2  # wake_idle at 0 + idle at 10
        # The timeout handed to the server was one of the configured values
        # (server either scheduled a timeout or began shutdown).
        assert server.state.value in ("idle", "shutting_down", "sleep")

    def test_learner_states_use_epoch_kinds(self):
        policy = make_policy()
        server, events = make_server(policy, initially_on=False)
        server.assign(job(1, 0.0), 0.0)  # wake from sleep
        events.run_until_empty()
        kinds = {state[0] for state in policy.learner.table()}
        assert WAKE_SLEEP in kinds
        assert IDLE in kinds

    def test_updates_happen_across_epochs(self):
        policy = make_policy()
        server, events = make_server(policy)
        for i, t in enumerate((0.0, 100.0, 200.0)):
            events.schedule(t, lambda tt, i=i, t=t: server.assign(job(i, t), tt))
        events.run_until_empty()
        assert policy.learner.updates >= 2

    def test_zero_sojourn_skipped(self):
        policy = make_policy()
        server, events = make_server(policy)
        # Two epochs at the same instant must not produce a zero-tau update.
        server.assign(job(1, 0.0, duration=5.0), 0.0)
        events.run_until_empty()
        assert all(np.isfinite(q).all() for q in policy.learner.table().values())

    def test_on_run_end_flushes_and_resets(self):
        policy = make_policy()
        server, events = make_server(policy)
        server.assign(job(1, 0.0), 0.0)
        events.run_until_empty()
        updates_before = policy.learner.updates
        server.finalize(500.0)
        assert policy.learner.updates >= updates_before
        assert policy._pending is None

    def test_tracker_fed_on_every_assignment(self):
        policy = make_policy()
        server, events = make_server(policy)
        for i, t in enumerate((0.0, 5.0, 9.0)):
            server.assign(job(i, t, duration=100.0, cpu=0.1), t)
        assert list(policy.tracker.window()) == [5.0, 4.0]


class TestLearningBehavior:
    def test_freeze_stops_learning(self):
        policy = make_policy()
        policy.freeze()
        server, events = make_server(policy)
        server.assign(job(1, 0.0), 0.0)
        events.run_until_empty()
        server.finalize(100.0)
        assert policy.learner.updates == 0

    def test_learns_to_sleep_for_long_gaps(self):
        """With w=1 (pure power) and huge inter-arrival gaps, the learned
        greedy action must be immediate shutdown."""
        policy = make_policy(
            w=1.0, epsilon_start=0.8, epsilon_floor=0.3, epsilon_decay=0.999
        )
        server, events = make_server(policy)
        t = 0.0
        for i in range(200):
            events.schedule(t, lambda tt, i=i, t=t: server.assign(job(i, t), tt))
            t += 2000.0  # far beyond any timeout
        events.run_until_empty()
        # Judge only idle states whose actions were all actually tried
        # (Q moved off the optimistic initial value of 0).
        table = policy.learner.table()
        tried = [
            s for s, q in table.items() if s[0] == IDLE and np.all(q < 0.0)
        ]
        assert tried
        for state in tried:
            greedy = policy.learner.greedy_action(state, len(policy.config.timeouts))
            assert policy.config.timeouts[greedy] == 0.0

    def test_learns_to_stay_awake_for_short_gaps(self):
        """With w=0 (pure latency) and gaps shorter than the long timeout,
        sleeping (which costs Toff+Ton of queueing) must lose."""
        policy = make_policy(w=0.0, epsilon_start=0.5, epsilon_decay=0.98,
                             timeouts=(0.0, 120.0))
        server, events = make_server(policy)
        t = 0.0
        for i in range(60):
            events.schedule(t, lambda tt, i=i, t=t: server.assign(job(i, t), tt))
            t += 50.0  # gap of 40 s after each 10 s job
        events.run_until_empty()
        idle_states = [s for s in policy.learner.table() if s[0] == IDLE]
        assert idle_states
        votes = [
            policy.config.timeouts[
                policy.learner.greedy_action(s, len(policy.config.timeouts))
            ]
            for s in idle_states
        ]
        assert sum(1 for v in votes if v > 0) >= len(votes) / 2

    def test_shared_learner_accumulates_across_policies(self):
        from repro.rl.smdp import SMDPQLearner

        shared = SMDPQLearner(rng=np.random.default_rng(0))
        p1 = RLPowerPolicy(make_config(), learner=shared, rng=np.random.default_rng(1))
        p2 = RLPowerPolicy(make_config(), learner=shared, rng=np.random.default_rng(2))
        s1, e1 = make_server(p1)
        s2, e2 = make_server(p2)
        for s, e in ((s1, e1), (s2, e2)):
            s.assign(job(1, 0.0), 0.0)
            e.run_until_empty()
            s.finalize(1000.0)
        assert shared.updates >= 2

    def test_timeouts_come_from_the_config(self):
        policy = make_policy(timeouts=(0.0, 30.0, 90.0))
        assert policy.config.timeouts == (0.0, 30.0, 90.0)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"timeouts": ()},
        {"timeouts": (-1.0,)},
        {"w": 1.5},
        {"power_scale": 0.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LocalTierConfig(**kwargs)
