"""Cluster: the set of M servers plus cluster-wide observables.

The cluster aggregates the exact per-server time integrals (energy, jobs
in system, overload) that the global tier's reward function (Eqn. 4)
consumes, and exposes the raw utilization matrix that the DRL state
encoder reads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.events import EventQueue
from repro.sim.interfaces import PowerPolicy
from repro.sim.ledger import ClusterLedger
from repro.sim.power import PowerModel
from repro.sim.server import Server


class Cluster:
    """A server cluster, homogeneous or mixed-fleet.

    Parameters
    ----------
    num_servers:
        M, the number of physical machines.
    power_model:
        Power characteristics — a single :class:`PowerModel` shared by
        every server (the paper's homogeneous cluster) or a sequence of
        one model per server (heterogeneous fleet).
    events:
        The simulation event queue shared by all servers.
    policies:
        One DPM policy per server (distributed local tier). A single
        policy instance may be passed to share it across servers
        (appropriate for stateless baselines such as fixed timeouts).
    num_resources:
        Resource dimensions D.
    overload_threshold:
        Hot-spot threshold for the reliability objective.
    initially_on:
        Whether servers start IDLE instead of SLEEP.
    """

    def __init__(
        self,
        num_servers: int,
        power_model: PowerModel | Sequence[PowerModel],
        events: EventQueue,
        policies: Sequence[PowerPolicy] | PowerPolicy,
        num_resources: int = 3,
        overload_threshold: float = 0.9,
        initially_on: bool = False,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be positive, got {num_servers}")
        if isinstance(policies, PowerPolicy):
            policies = [policies] * num_servers
        if len(policies) != num_servers:
            raise ValueError(
                f"got {len(policies)} policies for {num_servers} servers"
            )
        if isinstance(power_model, PowerModel):
            power_models: Sequence[PowerModel] = [power_model] * num_servers
        else:
            power_models = list(power_model)
            if len(power_models) != num_servers:
                raise ValueError(
                    f"got {len(power_models)} power models for {num_servers} servers"
                )
        self.events = events
        #: Reference model for cluster-level scales (first server's model).
        self.power_model = power_models[0]
        self.power_models = tuple(power_models)
        self.num_resources = int(num_resources)
        #: Contiguous per-server observables and time integrals; every
        #: server writes its own row, so cluster aggregates and the DRL
        #: state snapshot are array reductions/slices, never per-server
        #: Python scans.
        self.ledger = ClusterLedger(num_servers, num_resources)
        self.servers = [
            Server(
                server_id=i,
                power_model=power_models[i],
                events=events,
                policy=policies[i],
                num_resources=num_resources,
                overload_threshold=overload_threshold,
                initially_on=initially_on,
                ledger=self.ledger,
                ledger_index=i,
            )
            for i in range(num_servers)
        ]

    def __len__(self) -> int:
        return len(self.servers)

    def __getitem__(self, index: int) -> Server:
        return self.servers[index]

    def sync(self, now: float) -> None:
        """Bring every server's time integrals up to ``now`` (vectorized)."""
        self.ledger.sync(now)

    # ------------------------------------------------------------------
    # Aggregates (callers should sync() first for exact mid-run values).
    # ``np.add.reduce`` is the reduction ``ndarray.sum`` makes, without
    # its Python wrapper frames.
    # ------------------------------------------------------------------

    def total_energy(self) -> float:
        """Total cluster energy in joules."""
        return float(np.add.reduce(self.ledger.energy))

    def jobs_in_system(self) -> int:
        """Jobs currently waiting or running anywhere in the cluster."""
        return int(np.add.reduce(self.ledger.in_system))

    def system_integral(self) -> float:
        """Time integral of the number of jobs in the system (VM-seconds)."""
        return float(np.add.reduce(self.ledger.system_int))

    def overload_integral(self) -> float:
        """Time integral of the cluster hot-spot measure."""
        return float(np.add.reduce(self.ledger.overload_int))

    # ------------------------------------------------------------------
    # State observation for the global tier
    # ------------------------------------------------------------------

    def state_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(utilization, power_state, queue)`` snapshot views.

        The returned arrays are the ledger's live buffers — treat them as
        read-only and consume them before the simulation advances.
        """
        ledger = self.ledger
        return ledger.util, ledger.on, ledger.queue

    def finalize(self, now: float) -> None:
        """Finalize all servers at the end of a run."""
        for server in self.servers:
            server.finalize(now)
