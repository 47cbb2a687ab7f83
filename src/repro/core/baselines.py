"""Baseline brokers and power policies.

Brokers:

* :class:`RoundRobinBroker` — the paper's baseline allocation: jobs are
  dispatched evenly to each machine in turn.
* :class:`RandomBroker` — uniformly random server (used as the arbitrary
  seed policy for offline experience collection).
* :class:`LeastLoadedBroker` — greedy minimum-CPU-utilization dispatch.
* :class:`PackingBroker` — greedy consolidation: first awake server with
  room, else the first server that is not on, else the least-busy awake
  one.

Power policies:

* :class:`AlwaysOnPolicy` — never sleep (round-robin baseline pairs with
  this: all machines stay powered).
* :class:`ImmediateSleepPolicy` — the "ad hoc" manager of Fig. 4(a):
  sleep the moment the queue drains.
* :class:`FixedTimeoutPolicy` — constant timeout (30/60/90 s in Fig. 10).
"""

from __future__ import annotations

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.interfaces import Broker, PowerPolicy
from repro.sim.job import Job
from repro.sim.server import Server


class RoundRobinBroker(Broker):
    """Dispatch job i to server i mod M."""

    def __init__(self) -> None:
        self._cursor = 0

    def select_server(self, job: Job, cluster: Cluster, now: float) -> int:
        choice = self._cursor % len(cluster)
        self._cursor += 1
        return choice


class RandomBroker(Broker):
    """Uniformly random dispatch (seed policy for offline DRL training)."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def select_server(self, job: Job, cluster: Cluster, now: float) -> int:
        return int(self.rng.integers(len(cluster)))


class LeastLoadedBroker(Broker):
    """Send each job to the server with the lowest CPU commitment.

    Commitment counts both running and queued jobs, so the broker does
    not dogpile a server that is momentarily idle but has a deep queue.
    """

    def select_server(self, job: Job, cluster: Cluster, now: float) -> int:
        def commitment(server: Server) -> float:
            queued = sum(j.resources[0] for j in server.pending)
            return float(server.used[0]) + queued

        loads = [commitment(s) for s in cluster.servers]
        return int(np.argmin(loads))


class PackingBroker(Broker):
    """Greedy consolidation heuristic.

    Prefers, in order: the lowest-index awake (active or idle) server
    with an empty queue where the job fits right now; when every awake
    server holds work, the lowest-index server that is not on, which may
    be asleep, booting or shutting down (a sleeping one pays the boot
    cost to expand capacity); else the awake server with the fewest jobs
    in system, lowest index first. Which servers are on comes from the
    ledger's ``on`` row, read once.
    """

    def select_server(self, job: Job, cluster: Cluster, now: float) -> int:
        awake: list[Server] = []
        first_off: Server | None = None
        for server, on in zip(cluster.servers, cluster.ledger.on.tolist()):
            if not on:
                if first_off is None:
                    first_off = server
            elif not server.pending and server.fits(job):
                return server.server_id
            else:
                awake.append(server)
        if first_off is not None and all(s.jobs_in_system > 0 for s in awake):
            return first_off.server_id
        if awake:
            return min(awake, key=lambda s: (s.jobs_in_system, s.server_id)).server_id
        return 0


class AlwaysOnPolicy(PowerPolicy):
    """Never shut down: idle servers stay idle."""

    def on_idle(self, server: Server, now: float) -> float:
        return PowerPolicy.NEVER


class ImmediateSleepPolicy(PowerPolicy):
    """The ad-hoc manager of Fig. 4(a): sleep as soon as the queue drains."""

    def on_idle(self, server: Server, now: float) -> float:
        return 0.0


class FixedTimeoutPolicy(PowerPolicy):
    """Constant-timeout DPM (the fixed 30/60/90 s baselines of Fig. 10).

    Raises
    ------
    ValueError
        On a negative timeout.
    """

    def __init__(self, timeout: float) -> None:
        if timeout < 0:
            raise ValueError(f"timeout must be non-negative, got {timeout}")
        self.timeout = float(timeout)

    def on_idle(self, server: Server, now: float) -> float:
        return self.timeout
