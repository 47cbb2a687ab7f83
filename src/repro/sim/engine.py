"""Simulation engine: feeds jobs to the broker and drains the event queue.

The engine realizes the paper's continuous-time, event-driven decision
framework: every job arrival is a global-tier decision epoch (the broker
picks a server), and every server-side idle entry / wake-up is a
local-tier decision epoch (handled inside :class:`~repro.sim.server.Server`
via its policy). Between epochs, the simulated world evolves purely
through scheduled events.

The single-cluster simulator is a federation of one:
:func:`build_simulation` builds a one-site engine with
:func:`~repro.sim.federation.build_federation`, the one engine builder,
and :class:`ClusterEngine` is a read-only view over it whose
:meth:`~ClusterEngine.run` returns a :class:`SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.churn import CapacityEvent
from repro.sim.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.federation import FederationEngine, build_federation
from repro.sim.interfaces import Broker, PowerPolicy
from repro.sim.job import Job
from repro.sim.metrics import MetricsCollector
from repro.sim.power import PowerModel, TariffModel


@dataclass
class SimulationResult:
    """Outcome of a run: metrics plus the final cluster for inspection."""

    metrics: MetricsCollector
    cluster: Cluster
    final_time: float
    #: The fault runtime when the run was fault-injected, else ``None``
    #: (exposes availability / broker-fallback tallies to reporters).
    faults: object | None = None

    @property
    def total_energy_kwh(self) -> float:
        return self.metrics.total_energy_kwh()

    @property
    def accumulated_latency(self) -> float:
        return self.metrics.acc_latency

    @property
    def mean_latency(self) -> float:
        return self.metrics.mean_latency

    @property
    def average_power_watts(self) -> float:
        return self.metrics.average_power_watts()


@dataclass(frozen=True)
class ClusterEngine:
    """A one-site :class:`~repro.sim.federation.FederationEngine`, seen as one cluster.

    Holds nothing but that engine; :attr:`cluster`, :attr:`broker`,
    :attr:`metrics` and :attr:`events` are read-only views of its lone
    site, so there is no second copy to fall out of step.
    """

    federation: FederationEngine

    @property
    def cluster(self) -> Cluster:
        return self.federation.sites[0].cluster

    @property
    def broker(self) -> Broker:
        return self.federation.sites[0].broker

    @property
    def metrics(self) -> MetricsCollector:
        return self.federation.sites[0].metrics

    @property
    def events(self) -> EventQueue:
        return self.federation.events

    def run(self, jobs: Iterable[Job] | Sequence[Job]) -> SimulationResult:
        """Simulate the job stream to completion.

        Jobs must be ordered by non-decreasing arrival time (the paper's
        traces are). Arrivals are scheduled lazily one at a time, so the
        stream may be a generator of arbitrary length. Every job stays
        "home": the one-site engine has no federation broker.

        Raises
        ------
        ValueError
            If arrival times decrease along the stream.
        """
        result = self.federation.run([jobs])
        return SimulationResult(
            self.metrics,
            self.cluster,
            result.final_time,
            faults=self.federation.faults,
        )


def build_simulation(
    num_servers: int,
    broker: Broker,
    policies: Sequence[PowerPolicy] | PowerPolicy,
    power_model: PowerModel | Sequence[PowerModel] | None = None,
    num_resources: int = 3,
    overload_threshold: float = 0.9,
    initially_on: bool = False,
    record_every: int = 100,
    capacity_events: Iterable[CapacityEvent] = (),
    tariff: TariffModel | None = None,
    faults=None,
) -> ClusterEngine:
    """One cluster: a one-site :func:`~repro.sim.federation.build_federation`.

    The arguments are that builder's site keys (``power_model`` may be
    a per-server sequence; ``capacity_events`` are pre-scheduled churn
    events; ``tariff`` makes the metrics also report cost and CO₂), plus
    ``faults``: an optional :class:`~repro.faults.plan.SiteFaultPlan`
    installing seeded unplanned-failure injection (crashes, job
    failures, stragglers).
    """
    site = dict(
        name="cluster",
        num_servers=num_servers,
        broker=broker,
        policies=policies,
        power_model=power_model,
        num_resources=num_resources,
        overload_threshold=overload_threshold,
        initially_on=initially_on,
        record_every=record_every,
        capacity_events=capacity_events,
        tariff=tariff,
    )
    return ClusterEngine(
        build_federation([site], faults=None if faults is None else [faults])
    )
