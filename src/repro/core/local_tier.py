"""The local tier: model-free RL power manager (Sec. VI-B, Algorithm 2).

Each server runs its own power manager, in a fully distributed manner.
The manager's decision epochs are the three cases of Sec. VI-B:

1. the machine goes idle with an empty queue — choose a timeout from the
   action set (0 means shut down immediately);
2. the machine is idle and a job arrives — single forced action
   (start working);
3. the machine is asleep and a job arrives — single forced action
   (boot, then work).

The RL state is ``(epoch kind, predicted inter-arrival category)``: the
machine power state plus the LSTM predictor's discretized estimate of the
next inter-arrival time. Value updates follow continuous-time Q-learning
for SMDP (Eqn. 2) with reward rate ``-w P(t) - (1 - w) JQ(t)`` (Eqn. 5),
computed exactly from the server's energy and job-time integrals over
each sojourn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.config import LocalTierConfig
from repro.core.predictor import InterArrivalTracker, WorkloadPredictor
from repro.core.rewards import local_reward_rate
from repro.rl.smdp import SMDPQLearner
from repro.sim.interfaces import PowerPolicy
from repro.sim.job import Job
from repro.sim.server import Server

#: Epoch kinds used in RL state keys.
IDLE, WAKE_IDLE, WAKE_SLEEP = "idle", "wake_idle", "wake_sleep"


@dataclass
class _Pending:
    """The (s, a) awaiting its value update at the next decision epoch."""

    state: Hashable
    action: int
    n_actions: int
    time: float
    energy: float
    queue_integral: float


def dpm_learner(config: LocalTierConfig, rng: np.random.Generator) -> SMDPQLearner:
    """A DPM Q-learner with ``config``'s discount, step size and ε schedule."""
    return SMDPQLearner(
        beta=config.beta,
        alpha=config.alpha,
        epsilon=config.epsilon_start,
        epsilon_decay=config.epsilon_decay,
        epsilon_floor=config.epsilon_floor,
        rng=rng,
    )


class RLPowerPolicy(PowerPolicy):
    """Adaptive timeout policy learned online with SMDP Q-learning.

    Parameters
    ----------
    config:
        Timeout action set, reward weight w, and learning parameters.
    predictor:
        The LSTM workload predictor. May be shared across servers (it is
        stateless per prediction); each policy instance keeps its own
        :class:`InterArrivalTracker`.
    learner:
        Optional externally-supplied Q-learner. By default each policy
        owns a private learner (the paper's distributed setting); passing
        a shared learner pools experience across servers.
    """

    def __init__(
        self,
        config: LocalTierConfig | None = None,
        predictor: WorkloadPredictor | None = None,
        learner: SMDPQLearner | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config if config is not None else LocalTierConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.predictor = (
            predictor
            if predictor is not None
            else WorkloadPredictor(self.config.predictor, rng=self.rng)
        )
        self.learner = (
            learner if learner is not None else dpm_learner(self.config, self.rng)
        )
        self.tracker = InterArrivalTracker(self.config.predictor.lookback)
        self._pending: _Pending | None = None
        self.learning_enabled = True
        self.decision_epochs = 0

    # ------------------------------------------------------------------
    # RL state construction
    # ------------------------------------------------------------------

    def _state(self, kind: str) -> tuple[str, int]:
        return (kind, self.predictor.predict_category(self.tracker))

    def _n_actions(self, kind: str) -> int:
        return len(self.config.timeouts) if kind == IDLE else 1

    # ------------------------------------------------------------------
    # Value updates
    # ------------------------------------------------------------------

    def _complete_pending(
        self, server: Server, now: float, next_state: Hashable, next_n: int
    ) -> None:
        pending = self._pending
        if pending is None or not self.learning_enabled:
            return
        tau = now - pending.time
        if tau <= 0:
            # Zero-length sojourn (e.g. simultaneous events): nothing to learn.
            return
        reward_rate = local_reward_rate(
            self.config.w,
            energy_delta=server.energy_joules - pending.energy,
            queue_time_delta=server.queue_integral - pending.queue_integral,
            tau=tau,
            power_scale=self.config.power_scale,
        )
        self.learner.update(
            pending.state,
            pending.action,
            reward_rate,
            tau,
            next_state,
            pending.n_actions,
            next_n,
        )

    def _record(
        self, server: Server, now: float, state: Hashable, action: int, n_actions: int
    ) -> None:
        self._pending = _Pending(
            state=state,
            action=action,
            n_actions=n_actions,
            time=now,
            energy=server.energy_joules,
            queue_integral=server.queue_integral,
        )

    # ------------------------------------------------------------------
    # PowerPolicy interface (the three decision epochs)
    # ------------------------------------------------------------------

    def on_idle(self, server: Server, now: float) -> float:
        """Decision epoch 1: choose a timeout value ε-greedily."""
        self.decision_epochs += 1
        state = self._state(IDLE)
        n = self._n_actions(IDLE)
        self._complete_pending(server, now, state, n)
        if self.learning_enabled:
            action = self.learner.select_action(state, n)
        else:
            action = self.learner.greedy_action(state, n)
        self._record(server, now, state, action, n)
        return float(self.config.timeouts[action])

    def on_active(self, server: Server, now: float, from_sleep: bool) -> None:
        """Decision epochs 2 and 3: single forced action, value update only."""
        self.decision_epochs += 1
        kind = WAKE_SLEEP if from_sleep else WAKE_IDLE
        state = self._state(kind)
        self._complete_pending(server, now, state, 1)
        self._record(server, now, state, 0, 1)

    def on_job_assigned(self, server: Server, job: Job, now: float) -> None:
        """Feed the predictor's per-server inter-arrival window."""
        self.tracker.observe(now)

    def on_run_end(self, server: Server, now: float) -> None:
        """Flush the last open sojourn against a terminal idle state."""
        if self._pending is not None:
            self._complete_pending(
                server, now, self._state(IDLE), self._n_actions(IDLE)
            )
            self._pending = None
        self.tracker.new_run()

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Stop exploring and learning (pure exploitation)."""
        self.learning_enabled = False

    def timeout_values(self) -> tuple[float, ...]:
        return self.config.timeouts
