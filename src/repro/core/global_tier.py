"""The global tier: DRL-based cloud resource allocation (Sec. V).

The job broker is the DRL agent; the server cluster is the environment.
Decision epochs are job arrivals (continuous-time, event-driven), the
action is the index of the target server, and the reward is Eqn. (4) —
a negatively-weighted combination of total power, number of VMs in the
system (∝ latency by Little's law), and the reliability (hot-spot)
objective — accumulated exactly over each sojourn from the simulator's
time integrals.

Training follows Algorithm 1: an offline phase collects transition
profiles under a seed policy into the experience memory, pre-trains the
autoencoder on group states and the Sub-Q network on SMDP targets; the
online phase continues ε-greedy deep Q-learning, updating the DNN from
replayed minibatches with gradients clipped to norm 10.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.baselines import RoundRobinBroker
from repro.core.config import GlobalTierConfig
from repro.core.qnetwork import HierarchicalQNetwork
from repro.core.rewards import GlobalRewardWeights, global_reward_rate
from repro.core.state import StateEncoder
from repro.rl.policies import explore_draw, greedy_pick
from repro.rl.replay import ReplayMemory
from repro.rl.smdp import smdp_discounted_reward
from repro.sim.cluster import Cluster
from repro.sim.interfaces import Broker
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.hierarchical import HierarchicalSystem

#: Most observed states the autoencoder pre-trains on; a larger
#: experience memory is subsampled to this many.
MAX_PRETRAIN_STATES = 5000
#: Offline pre-training budget: autoencoder epochs over the observed
#: states, then Sub-Q epochs of this many replayed minibatches each.
AUTOENCODER_PRETRAIN_EPOCHS = 5
Q_PRETRAIN_EPOCHS = 2
Q_PRETRAIN_BATCHES = 100


class DRLGlobalBroker(Broker):
    """Deep-RL job broker (the paper's global tier).

    Parameters
    ----------
    encoder:
        State encoder fixing M, D, K and the state layout.
    config:
        Hyper-parameters (reward weights, ε schedule, replay, training).
    qnetwork:
        Optionally a pre-built/pre-trained network; a fresh one is
        created otherwise.
    behavior:
        Optional override broker. When set, actions come from it while
        this agent still observes states and records transitions — the
        offline experience-collection mode of Algorithm 1 lines 1–3.
    """

    def __init__(
        self,
        encoder: StateEncoder,
        config: GlobalTierConfig | None = None,
        qnetwork: HierarchicalQNetwork | None = None,
        behavior: Broker | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.encoder = encoder
        self.config = config if config is not None else GlobalTierConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.qnet = (
            qnetwork
            if qnetwork is not None
            else HierarchicalQNetwork(
                encoder,
                autoencoder_hidden=self.config.autoencoder_hidden,
                subq_hidden=self.config.subq_hidden,
                rng=self.rng,
            )
        )
        self.weights = GlobalRewardWeights(
            self.config.w_power, self.config.w_vms, self.config.w_reliability
        )
        self.replay = ReplayMemory(self.config.replay_capacity)
        self.optimizer = self.qnet.make_optimizer(self.config.learning_rate)
        self.behavior = behavior
        # Value rescaling: learn beta * Q so DNN targets stay O(reward
        # rate); see GlobalTierConfig.normalize_values.
        self._reward_scale = (
            self.config.beta
            if self.config.normalize_values and self.config.beta > 0
            else 1.0
        )
        self.epsilon = self.config.epsilon_start
        self.training_enabled = True
        self.decision_epochs = 0
        self.loss_history: deque[float] = deque(maxlen=1000)
        self._pending: tuple[np.ndarray, int, float, float, float, float] | None = None

    # ------------------------------------------------------------------
    # Broker interface
    # ------------------------------------------------------------------

    def select_server(self, job: Job, cluster: Cluster, now: float) -> int:
        """One decision epoch: record the previous transition, pick a server."""
        state = self.encoder.encode(cluster, job)
        energy = cluster.total_energy()
        vm_time = cluster.system_integral()
        overload = cluster.overload_integral()

        if self._pending is not None:
            prev_state, prev_action, t0, e0, v0, o0 = self._pending
            tau = now - t0
            if tau > 0:
                rate = global_reward_rate(
                    self.weights, energy - e0, vm_time - v0, overload - o0, tau
                )
                if self.config.reward_clip is not None:
                    rate = max(
                        min(rate, self.config.reward_clip),
                        -self.config.reward_clip,
                    )
            else:
                rate = 0.0
            reward = self._reward_scale * smdp_discounted_reward(
                rate, tau, self.config.beta
            )
            self.replay.push(prev_state, prev_action, reward, state, tau)

        if self.behavior is not None:
            action = self.behavior.select_server(job, cluster, now)
        else:
            # The exploration coin first: an exploring arrival needs no
            # Q-values, and the generator makes the same draws either way.
            action = explore_draw(self.epsilon, self.qnet.num_actions, self.rng)
            if action is None:
                action = greedy_pick(self.qnet.q_values(state), self.rng)
            if self.training_enabled:
                # Anneal only while learning; freeze() pins epsilon at 0.
                self.epsilon = max(
                    self.config.epsilon_floor,
                    self.epsilon * self.config.epsilon_decay,
                )

        self._pending = (state, action, now, energy, vm_time, overload)
        self.decision_epochs += 1

        if (
            self.training_enabled
            and self.behavior is None
            and len(self.replay) >= self.config.batch_size
            and self.decision_epochs % self.config.train_interval == 0
        ):
            self.train_minibatch()
        return action

    def on_run_end(self, cluster: Cluster, now: float) -> None:
        """Drop the open sojourn; the next run starts a fresh chain."""
        self._pending = None

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def train_minibatch(self, batch_size: int | None = None) -> float:
        """One DNN update from replayed transitions (deep Q-learning step).

        Targets follow Eqn. (2): sojourn-discounted reward (already stored
        in the transition) plus ``e^{-beta tau} max_a' Q(s', a')`` from the
        current network. Returns the minibatch loss.

        Raises
        ------
        ValueError
            If the replay memory is empty.
        """
        states, actions, rewards, next_states, taus = self.replay.sample_arrays(
            batch_size or self.config.batch_size, self.rng
        )
        next_max = self.qnet.predict(next_states).max(axis=1)
        targets = rewards + np.exp(-self.config.beta * taus) * next_max
        loss = self.qnet.train_step(
            states,
            actions,
            targets,
            self.optimizer,
            self.config.max_grad_norm,
            huber_delta=self.config.huber_delta,
        )
        self.loss_history.append(loss)
        return loss

    def freeze(self) -> None:
        """Greedy evaluation mode: no exploration, no training."""
        self.epsilon = 0.0
        self.training_enabled = False


def offline_pretrain(
    system: HierarchicalSystem, traces: Sequence[Sequence[Job]]
) -> dict[str, list[float]]:
    """Offline DNN construction (Algorithm 1, lines 1–4).

    Runs each trace through ``system`` (:meth:`HierarchicalSystem.run
    <repro.core.hierarchical.HierarchicalSystem.run>`, so on the site
    its config describes) with round-robin (the "arbitrary policy")
    choosing every server, while the system's DRL broker records
    state-transition profiles into its experience memory; then
    pre-trains the shared autoencoder on observed group states (at most
    :data:`MAX_PRETRAIN_STATES`) and the Sub-Q network on SMDP targets
    sampled from the memory.

    Parameters
    ----------
    system:
        A system whose broker is the :class:`DRLGlobalBroker` to
        pre-train (its replay memory is filled in place).
    traces:
        Training job traces — the paper uses workloads of five different
        M-machine clusters.

    Returns
    -------
    dict with ``"autoencoder"`` and ``"q"`` per-epoch loss histories.
    """
    if not traces:
        raise ValueError("offline_pretrain needs at least one trace")
    broker = system.broker
    broker.behavior = RoundRobinBroker()
    try:
        for trace in traces:
            system.run([job.copy() for job in trace])
    finally:
        broker.behavior = None

    if len(broker.replay) == 0:
        raise ValueError("experience collection produced no transitions")

    # Draw the subsample first and gather only its states: a full
    # memory holds up to ``replay_capacity`` of them.
    n_stored = len(broker.replay)
    if n_stored > MAX_PRETRAIN_STATES:
        idx = broker.rng.choice(n_stored, MAX_PRETRAIN_STATES, replace=False)
    else:
        idx = np.arange(n_stored)
    ae_history = broker.qnet.pretrain_autoencoder(
        broker.replay.states(idx), epochs=AUTOENCODER_PRETRAIN_EPOCHS, rng=broker.rng
    )

    q_history: list[float] = []
    for _ in range(Q_PRETRAIN_EPOCHS):
        epoch_loss = 0.0
        for _ in range(Q_PRETRAIN_BATCHES):
            epoch_loss += broker.train_minibatch()
        q_history.append(epoch_loss / Q_PRETRAIN_BATCHES)
    return {"autoencoder": ae_history, "q": q_history}
