"""Federation-tier dispatchers: the broker above the cluster brokers.

Four policies mirror the cluster-tier comparison set one level up:

* :class:`StaticHomeBroker` — every job runs at the site whose workload
  stream emitted it (per-site autonomy, the baseline).
* :class:`LeastLoadedSiteBroker` — greedy cross-site balancing by jobs
  in system per server.
* :class:`TariffGreedySiteBroker` — price- or carbon-greedy: route to
  the site whose electricity is cheapest / cleanest *right now*
  (follow-the-sun / carbon-aware dispatch), tie-broken by load.
* :class:`DRLFederationBroker` — the learned dispatcher. It reuses the
  paper's entire Sub-Q machinery unchanged by presenting the federation
  as a "cluster of sites": :class:`FederationStateView` aggregates each
  site's :class:`~repro.sim.ledger.ClusterLedger` into one per-site
  feature row (mean utilization, fraction of servers on, queued jobs),
  which :class:`~repro.core.state.StateEncoder` encodes exactly as it
  encodes servers, and an inner
  :class:`~repro.core.global_tier.DRLGlobalBroker` learns over fleet
  aggregates with the same SMDP rewards, replay memory, and ε schedule.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.config import GlobalTierConfig
from repro.obs import telemetry as obs
from repro.core.global_tier import DRLGlobalBroker
from repro.core.qnetwork import HierarchicalQNetwork
from repro.core.state import StateEncoder
from repro.sim.federation import Site
from repro.sim.interfaces import FederationBroker
from repro.sim.job import Job

#: Named federation policies the scenario layer can request.
FEDERATION_POLICY_NAMES = (
    "home",
    "least-loaded",
    "price-greedy",
    "carbon-greedy",
    "drl",
)


class StaticHomeBroker(FederationBroker):
    """Per-site autonomy: every job runs where its stream homed it."""

    def select_site(
        self, job: Job, sites: Sequence[Site], home: int, now: float
    ) -> int:
        return home


def _site_load(site: Site) -> float:
    """Jobs in system per server — the cross-site balancing signal."""
    return site.cluster.jobs_in_system() / len(site.cluster)


class LeastLoadedSiteBroker(FederationBroker):
    """Greedy balancing: send the job to the least-loaded site.

    Load is jobs in system (waiting + running) normalized by fleet size,
    so a 10-server site and a 40-server site compare fairly. Ties keep
    the home site when it is among the minima, else the lowest index —
    deterministic either way.
    """

    def select_site(
        self, job: Job, sites: Sequence[Site], home: int, now: float
    ) -> int:
        for site in sites:
            site.cluster.sync(now)
        loads = [_site_load(site) for site in sites]
        best = min(loads)
        if loads[home] == best:
            return home
        return loads.index(best)


class TariffGreedySiteBroker(FederationBroker):
    """Route to the site with the cheapest (or cleanest) electricity now.

    Parameters
    ----------
    mode:
        ``"price"`` reads :meth:`~repro.sim.power.TariffModel.price_at`,
        ``"carbon"`` reads
        :meth:`~repro.sim.power.TariffModel.carbon_at`. Sites without a
        tariff rank last (``inf``); if no site carries one the job stays
        home.
    tolerance:
        Sites whose signal is within ``tolerance`` (relative) of the
        minimum count as equally cheap; among those the least-loaded
        wins, so a flat tariff plateau still balances load instead of
        piling everything on site 0.
    """

    def __init__(self, mode: str = "price", tolerance: float = 0.0) -> None:
        if mode not in ("price", "carbon"):
            raise ValueError(f"mode must be 'price' or 'carbon', got {mode!r}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.mode = mode
        self.tolerance = tolerance

    def _signal(self, site: Site, now: float) -> float:
        if site.tariff is None:
            return math.inf
        if self.mode == "price":
            return site.tariff.price_at(now)
        return site.tariff.carbon_at(now)

    def select_site(
        self, job: Job, sites: Sequence[Site], home: int, now: float
    ) -> int:
        signals = [self._signal(site, now) for site in sites]
        best = min(signals)
        if math.isinf(best):
            return home
        cutoff = best * (1.0 + self.tolerance)
        candidates = [i for i, s in enumerate(signals) if s <= cutoff]
        if len(candidates) == 1:
            return candidates[0]
        for site in sites:
            site.cluster.sync(now)
        loads = [(_site_load(sites[i]), i) for i in candidates]
        return min(loads)[1]


class FederationStateView:
    """Presents a federation as a "cluster of sites" to the DRL machinery.

    Exposes exactly the surface :class:`~repro.core.state.StateEncoder`
    and :class:`~repro.core.global_tier.DRLGlobalBroker` consume from a
    :class:`~repro.sim.cluster.Cluster` — ``state_views()``, ``len()``,
    and the reward-rate integrals — with each *site* aggregated into one
    row: mean per-resource utilization over its servers, fraction of
    servers on, and total queued jobs. All reads come straight off the
    sites' :class:`~repro.sim.ledger.ClusterLedger` arrays; callers must
    ``sync`` the clusters first (the brokers here do).
    """

    def __init__(self, sites: Sequence[Site], num_resources: int = 3) -> None:
        if not sites:
            raise ValueError("a federation view needs at least one site")
        self.sites = list(sites)
        self.num_resources = int(num_resources)
        n = len(self.sites)
        self._util = np.zeros((n, self.num_resources))
        self._on = np.zeros(n)
        self._queue = np.zeros(n)

    def __len__(self) -> int:
        return len(self.sites)

    def state_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-site ``(utilization, on-fraction, queue)`` aggregate rows."""
        tel = obs.active()
        if tel is None:
            return self._compute_views()
        with tel.span("fed.state_view"):
            return self._compute_views()

    def _compute_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        for i, site in enumerate(self.sites):
            ledger = site.cluster.ledger
            self._util[i] = ledger.util[:, : self.num_resources].mean(axis=0)
            self._on[i] = ledger.on.mean()
            self._queue[i] = ledger.queue.sum()
        return self._util, self._on, self._queue

    # Fleet-wide reward integrals (sums over the member ledgers).

    def total_energy(self) -> float:
        return sum(site.cluster.total_energy() for site in self.sites)

    def system_integral(self) -> float:
        return sum(site.cluster.system_integral() for site in self.sites)

    def overload_integral(self) -> float:
        return sum(site.cluster.overload_integral() for site in self.sites)


def federation_encoder(num_sites: int) -> StateEncoder:
    """The site-granular state encoder a DRL federation dispatcher uses.

    One "server" per site, three resources, and every site its own
    group (K = S), so the shared Sub-Q scores each site from its own
    aggregate block plus the autoencoder code — the same weight-sharing
    trick the paper uses across server groups, now across sites.
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be positive, got {num_sites}")
    return StateEncoder(num_servers=num_sites, num_groups=num_sites)


#: Compact default hyper-parameters for the federation tier: site-level
#: states are a few features wide, so the paper's 30/15 autoencoder and
#: 128-unit Sub-Q are replaced with proportionally small layers.
FEDERATION_TIER_DEFAULTS = dict(autoencoder_hidden=(16, 8), subq_hidden=(32,))


class DRLFederationBroker(FederationBroker):
    """Learned cross-site dispatch on the paper's Sub-Q machinery.

    Wraps a :class:`~repro.core.global_tier.DRLGlobalBroker` whose
    "cluster" is a :class:`FederationStateView` and whose "servers" are
    the sites. Decision epochs are fleet-wide job arrivals; rewards
    accumulate the same Eqn.-4 terms (power, jobs in system, hot spots)
    over the *whole fleet*, so the dispatcher learns to place load where
    it hurts the federation least. The agent's hyper-parameters are
    :class:`GlobalTierConfig`'s with :data:`FEDERATION_TIER_DEFAULTS`
    layer sizes.

    Parameters
    ----------
    num_sites:
        S, the number of member sites.
    rng:
        The agent's generator (default: seeded with 0).
    """

    def __init__(self, num_sites: int, rng: np.random.Generator | None = None) -> None:
        self.num_sites = int(num_sites)
        encoder = federation_encoder(num_sites)
        config = GlobalTierConfig(
            num_groups=encoder.num_groups, **FEDERATION_TIER_DEFAULTS
        )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.agent = DRLGlobalBroker(encoder, config, rng=rng)
        self._view: FederationStateView | None = None
        self._view_key: tuple[int, ...] = ()

    def _view_for(self, sites: Sequence[Site]) -> FederationStateView:
        key = tuple(map(id, sites))
        if self._view is None or self._view_key != key:
            if len(sites) != self.num_sites:
                raise ValueError(
                    f"broker was built for {self.num_sites} sites, got "
                    f"{len(sites)}"
                )
            self._view = FederationStateView(
                sites, num_resources=self.agent.encoder.num_resources
            )
            self._view_key = key
        return self._view

    def select_site(
        self, job: Job, sites: Sequence[Site], home: int, now: float
    ) -> int:
        view = self._view_for(sites)
        for site in sites:
            site.cluster.sync(now)
        return self.agent.select_server(job, view, now)

    def on_run_end(self, sites: Sequence[Site], now: float) -> None:
        self.agent.on_run_end(None, now)
        self._view = None  # the next run rebuilds against fresh clusters

    def freeze(self) -> None:
        """Greedy evaluation mode: no exploration, no training."""
        self.agent.freeze()

    @property
    def qnet(self) -> HierarchicalQNetwork:
        return self.agent.qnet

    @property
    def epsilon(self) -> float:
        return self.agent.epsilon

    @epsilon.setter
    def epsilon(self, value: float) -> None:
        self.agent.epsilon = value


def make_federation_broker(
    policy: str, num_sites: int, rng: np.random.Generator | None = None
) -> FederationBroker | None:
    """Build a named federation-tier dispatcher.

    Returns ``None`` for ``"home"`` — the engine then routes every job
    to its home site without any broker call, which keeps the
    single-cluster fast path overhead-free.

    Raises
    ------
    ValueError
        On an unknown policy name.
    """
    if policy == "home":
        return None
    if policy == "least-loaded":
        return LeastLoadedSiteBroker()
    if policy == "price-greedy":
        return TariffGreedySiteBroker(mode="price")
    if policy == "carbon-greedy":
        return TariffGreedySiteBroker(mode="carbon")
    if policy == "drl":
        return DRLFederationBroker(num_sites, rng=rng)
    raise ValueError(
        f"unknown federation policy {policy!r}; known: {FEDERATION_POLICY_NAMES}"
    )
