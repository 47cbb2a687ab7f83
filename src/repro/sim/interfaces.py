"""Control interfaces between the simulator and the three tiers.

The simulator is policy-agnostic: a :class:`FederationBroker` decides
which *site* of a federation serves each arriving job (the tier above
the paper's hierarchy), a :class:`Broker` decides which server within a
cluster receives it (the paper's global tier / job broker), and a
:class:`PowerPolicy` decides the DPM timeout whenever a server goes idle
(the paper's local tier). Concrete learning controllers live in
``repro.core``; simple baselines in ``repro.core.baselines`` and
``repro.core.federation``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.cluster import Cluster
    from repro.sim.federation import Site
    from repro.sim.job import Job
    from repro.sim.server import Server


class Broker:
    """Decides the target server for each arriving job.

    ``select_server`` is the only required method; the end-of-run hook
    is optional and defaults to a no-op.
    """

    def select_server(self, job: "Job", cluster: "Cluster", now: float) -> int:
        """Return the index of the server that receives ``job``."""
        raise NotImplementedError

    def on_run_end(self, cluster: "Cluster", now: float) -> None:
        """Called once when the simulation finishes (optional hook)."""


class FederationBroker:
    """Decides the target *site* for each arriving job (federation tier).

    The broker-above-brokers of a multi-cluster
    :class:`~repro.sim.federation.FederationEngine`: every arrival first
    passes through :meth:`select_site`, and only then through the chosen
    site's own cluster-tier :class:`Broker`. Implementations that
    inspect cluster state should call ``site.cluster.sync(now)`` first —
    syncing is exact and idempotent, so observing never perturbs the
    energy/latency accounts.

    ``select_site`` is the only required method; the end-of-run hook is
    optional and defaults to a no-op.
    """

    def select_site(
        self, job: "Job", sites: Sequence["Site"], home: int, now: float
    ) -> int:
        """Return the index of the site that serves ``job``.

        ``home`` is the index of the site whose workload stream emitted
        the job (the static-routing baseline returns it unchanged).
        """
        raise NotImplementedError

    def on_run_end(self, sites: Sequence["Site"], now: float) -> None:
        """Called once when the simulation finishes (optional hook)."""


class PowerPolicy:
    """Per-server dynamic power management policy.

    The simulator calls :meth:`on_idle` at the paper's decision epoch
    case (1) — the server just became idle with an empty queue — and the
    policy answers with a timeout in seconds:

    * ``0.0`` — shut down immediately,
    * ``math.inf`` — never shut down (always-on),
    * anything in between — sleep if no job arrives within the timeout.

    :meth:`on_active` covers decision epochs (2) and (3) — a job arrived
    while the server was idle or asleep — where there is only one possible
    action but learning policies still perform their value update.
    """

    #: Convenience constant for "never sleep".
    NEVER = math.inf

    def on_idle(self, server: "Server", now: float) -> float:
        """Return the DPM timeout for an idle server (decision epoch 1)."""
        raise NotImplementedError

    def on_active(self, server: "Server", now: float, from_sleep: bool) -> None:
        """A job arrived while idle (epoch 2) or asleep (epoch 3)."""

    def on_job_assigned(self, server: "Server", job: "Job", now: float) -> None:
        """Called on *every* job assignment to this policy's server.

        This is the workload-predictor feed: the local tier observes the
        inter-arrival time sequence produced by the global tier's
        allocations through this hook.
        """

    def on_run_end(self, server: "Server", now: float) -> None:
        """Called once per server when the simulation finishes."""
