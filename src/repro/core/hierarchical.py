"""Builders wiring complete systems (the paper's three comparators).

* :func:`build_round_robin` — round-robin dispatch, all servers always on
  (the paper's baseline; its measured average power matches M idle
  servers, so no DPM is in effect).
* :func:`build_drl_only` — the DRL global tier with the ad-hoc local
  power behaviour of Fig. 4(a): servers sleep the instant they go idle.
* :func:`build_hierarchical` — the full proposed framework: DRL global
  tier plus the distributed RL power manager with LSTM workload
  prediction in the local tier.

Each builder returns a :class:`HierarchicalSystem` bundle.
:meth:`HierarchicalSystem.site` maps it to one site's arguments for
:func:`~repro.sim.federation.build_federation`, the one engine builder;
:meth:`HierarchicalSystem.run` simulates a trace on a fresh one-site
engine built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baselines import AlwaysOnPolicy, ImmediateSleepPolicy, RoundRobinBroker
from repro.core.config import ExperimentConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.local_tier import RLPowerPolicy
from repro.core.predictor import WorkloadPredictor
from repro.core.state import StateEncoder
from repro.rl.smdp import SMDPQLearner
from repro.sim.churn import CapacityEvent
from repro.sim.engine import SimulationResult, build_simulation
from repro.sim.interfaces import Broker, PowerPolicy
from repro.sim.job import Job
from repro.sim.power import TariffModel


@dataclass
class HierarchicalSystem:
    """A named, fully-wired controller stack ready to simulate."""

    name: str
    broker: Broker
    policies: list[PowerPolicy] | PowerPolicy
    config: ExperimentConfig
    initially_on: bool = False
    predictor: WorkloadPredictor | None = None

    def site(self, **extra) -> dict:
        """This system as one site of :func:`~repro.sim.federation.build_federation`.

        The one mapping from a system (its config, broker, policies and
        ``initially_on``) to site arguments; ``extra`` adds the rest
        (``name``, ``record_every``, ``tariff``, ``capacity_events``).
        """
        config = self.config
        return {
            "num_servers": config.num_servers,
            "broker": self.broker,
            "policies": self.policies,
            "power_model": config.fleet_power_models,
            "num_resources": config.num_resources,
            "overload_threshold": config.overload_threshold,
            "initially_on": self.initially_on,
            **extra,
        }

    def run(
        self,
        jobs: list[Job],
        record_every: int | None = None,
        capacity_events: tuple[CapacityEvent, ...] = (),
        tariff: "TariffModel | None" = None,
        faults=None,
    ) -> SimulationResult:
        """Simulate ``jobs`` on a fresh one-site engine around this system."""
        if record_every is None:
            record_every = self.config.record_every
        site = self.site(
            record_every=record_every, capacity_events=capacity_events, tariff=tariff
        )
        return build_simulation(**site, faults=faults).run(jobs)

    def freeze(self) -> None:
        """Put every learning component into greedy evaluation mode."""
        if isinstance(self.broker, DRLGlobalBroker):
            self.broker.freeze()
        policies = (
            self.policies if isinstance(self.policies, list) else [self.policies]
        )
        for policy in policies:
            if isinstance(policy, RLPowerPolicy):
                policy.freeze()


def _make_encoder(config: ExperimentConfig) -> StateEncoder:
    return StateEncoder(
        num_servers=config.num_servers,
        num_resources=config.num_resources,
        num_groups=config.global_tier.num_groups,
        include_power_state=config.global_tier.include_power_state,
        include_queue_state=config.global_tier.include_queue_state,
    )


def build_round_robin(config: ExperimentConfig | None = None) -> HierarchicalSystem:
    """The paper's baseline: round-robin dispatch, servers always on."""
    config = config if config is not None else ExperimentConfig()
    return HierarchicalSystem(
        name="round-robin",
        broker=RoundRobinBroker(),
        policies=AlwaysOnPolicy(),
        config=config,
        initially_on=True,
    )


def build_drl_only(
    config: ExperimentConfig | None = None,
    broker: DRLGlobalBroker | None = None,
    seed: int | None = None,
) -> HierarchicalSystem:
    """DRL-based resource allocation ONLY: ad-hoc (immediate) sleeping."""
    config = config if config is not None else ExperimentConfig()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    if broker is None:
        broker = DRLGlobalBroker(_make_encoder(config), config.global_tier, rng=rng)
    return HierarchicalSystem(
        name="drl-only",
        broker=broker,
        policies=ImmediateSleepPolicy(),
        config=config,
        initially_on=False,
    )


def build_hierarchical(
    config: ExperimentConfig | None = None,
    broker: DRLGlobalBroker | None = None,
    predictor: WorkloadPredictor | None = None,
    shared_dpm_learner: bool = False,
    seed: int | None = None,
) -> HierarchicalSystem:
    """The full proposed framework: DRL global tier + RL/LSTM local tier.

    Parameters
    ----------
    broker:
        Optionally a pre-trained global broker (from
        :func:`~repro.core.global_tier.offline_pretrain`).
    predictor:
        Optionally a pre-trained LSTM predictor, shared by every server's
        power manager (each keeps its own inter-arrival window).
    shared_dpm_learner:
        Pool the DPM Q-table across servers instead of the paper's fully
        distributed per-server learners (an extension; speeds up learning
        on short traces).
    """
    config = config if config is not None else ExperimentConfig()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    if broker is None:
        broker = DRLGlobalBroker(_make_encoder(config), config.global_tier, rng=rng)
    if predictor is None:
        predictor = WorkloadPredictor(config.local_tier.predictor, rng=rng)
    shared_learner = None
    if shared_dpm_learner:
        shared_learner = SMDPQLearner(
            beta=config.local_tier.beta,
            alpha=config.local_tier.alpha,
            epsilon=config.local_tier.epsilon_start,
            epsilon_decay=config.local_tier.epsilon_decay,
            epsilon_floor=config.local_tier.epsilon_floor,
            rng=rng,
        )
    policies: list[PowerPolicy] = [
        RLPowerPolicy(
            config.local_tier,
            predictor=predictor,
            learner=shared_learner,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for _ in range(config.num_servers)
    ]
    return HierarchicalSystem(
        name="hierarchical",
        broker=broker,
        policies=policies,
        config=config,
        initially_on=False,
        predictor=predictor,
    )


def per_server_interarrivals(jobs: list[Job], num_servers: int) -> np.ndarray:
    """Per-server inter-arrival series implied by balanced dispatch.

    Under round-robin, server ``i`` receives jobs ``i, i+M, i+2M, ...``;
    the inter-arrival stream at a server is therefore the M-strided
    difference of the global arrival times. Used to pre-train the LSTM
    predictor offline before the first online run.
    """
    if num_servers < 1:
        raise ValueError(f"num_servers must be positive, got {num_servers}")
    arrivals = np.array(sorted(job.arrival_time for job in jobs))
    if arrivals.size <= num_servers:
        raise ValueError("trace too short for the requested number of servers")
    return arrivals[num_servers:] - arrivals[:-num_servers]


def pretrain_predictor(
    predictor: WorkloadPredictor,
    jobs: list[Job],
    num_servers: int,
    epochs: int | None = None,
    max_samples: int = 2000,
) -> list[float]:
    """Fit the LSTM predictor on trace-implied per-server inter-arrivals."""
    series = per_server_interarrivals(jobs, num_servers)
    if series.size > max_samples:
        series = series[:max_samples]
    return predictor.fit(series, epochs=epochs)
