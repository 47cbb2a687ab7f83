"""The wired controller stack every named system runs as.

A :class:`HierarchicalSystem` bundles one site's broker, power
policies and config; :func:`repro.harness.runner.make_system` is the one
constructor of the named systems (round-robin, DRL-only, the full
hierarchical framework and the rest).
:meth:`HierarchicalSystem.site` maps a system to one site's arguments
for :func:`~repro.sim.federation.build_federation`, the one engine
builder; :meth:`HierarchicalSystem.run` simulates a training pass on a
fresh one-site engine built from them. The module also pre-trains the
local tier's LSTM predictor on trace-implied per-server inter-arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.global_tier import DRLGlobalBroker
from repro.core.local_tier import RLPowerPolicy
from repro.core.predictor import WorkloadPredictor
from repro.sim.engine import SimulationResult, build_simulation
from repro.sim.interfaces import Broker, PowerPolicy
from repro.sim.job import Job


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

    def run(self, jobs: list[Job]) -> SimulationResult:
        """Simulate ``jobs`` on a fresh one-site engine around this system.

        The runner of training passes: offline experience collection
        (:func:`~repro.core.global_tier.offline_pretrain`), the online
        epochs and the local-tier warm-up. Nothing reads a training
        pass's series, and the run carries no churn, tariff or faults,
        which only a scenario cell's evaluation run attaches
        (:func:`~repro.scenarios.federation.build_federation_engine`).
        """
        return build_simulation(**self.site()).run(jobs)

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
