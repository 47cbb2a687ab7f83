"""Federation: several sites (clusters) simulated on one event clock.

The paper's hierarchy stops at one cluster — a global tier dispatches
jobs to servers, a local tier manages per-server power. This module adds
the tier above it: a :class:`Site` bundles one cluster with its own
cluster-tier :class:`~repro.sim.interfaces.Broker` and its own
:class:`~repro.sim.metrics.MetricsCollector` (which carries the site's
optional :class:`~repro.sim.power.TariffModel`), so sites may differ in
fleet, power models, and electricity prices; a :class:`FederationEngine`
merges the sites' home job streams into one time-ordered feed and routes
every arrival through a :class:`~repro.sim.interfaces.FederationBroker`
before the chosen site's own broker places it on a server.

:func:`build_federation` is the one engine builder: every engine in the
package — a fleet, a scenario cell, or the single-cluster
:class:`~repro.sim.engine.ClusterEngine` (one site, no federation
broker) — is built by it, so a federation of one is the single-cluster
simulator, not a twin of it.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.obs import telemetry as obs
from repro.sim.churn import schedule_capacity_events
from repro.sim.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.interfaces import Broker, FederationBroker
from repro.sim.job import Job
from repro.sim.metrics import MetricsCollector, SeriesPoint
from repro.sim.power import PowerModel, TariffModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import SiteFaultPlan


@dataclass
class Site:
    """One member cluster of a federation, as :func:`build_federation` wires it.

    Parameters
    ----------
    name:
        Site label (e.g. a region); cosmetic, used in reports.
    cluster:
        The site's server cluster. All sites of one federation are
        built on the *same* :class:`~repro.sim.events.EventQueue`.
    broker:
        The site's cluster-tier dispatcher (the paper's global tier).
    metrics:
        The site's collector. It carries the site's electricity price /
        carbon signal (:attr:`tariff`); sites in different markets or
        time zones carry different tariffs (see
        :meth:`~repro.sim.power.TariffModel.shifted`).
    """

    name: str
    cluster: Cluster
    broker: Broker
    metrics: MetricsCollector

    @property
    def tariff(self) -> TariffModel | None:
        return self.metrics.tariff

    @property
    def num_servers(self) -> int:
        return len(self.cluster)


@dataclass
class FederationResult:
    """Outcome of a federated run: the sites, the end time and the fleet series.

    The sites' collectors hold every count and total;
    :meth:`repro.harness.runner.RunResult.from_run` is the one summary
    of them, for the whole fleet or one site.
    """

    sites: list[Site]
    final_time: float
    fleet_series: list[SeriesPoint] = field(default_factory=list)


def merge_site_series(sites: Sequence[Site]) -> list[SeriesPoint]:
    """Fleet-wide accumulated series from the per-site series.

    Walks every site's sample points in time order (ties resolved by
    site index) carrying each site's latest cumulative values, so each
    output point is the exact fleet total at that sample instant. A
    federation of one reproduces the site's own series unchanged, so
    the fleet's average power (its last point's) is the lone site's.
    """
    if len(sites) == 1:
        return list(sites[0].metrics.series)
    tagged = sorted(
        (
            (point.time, i, point)
            for i, site in enumerate(sites)
            for point in site.metrics.series
        ),
        key=lambda rec: (rec[0], rec[1]),
    )
    latest: list[SeriesPoint | None] = [None] * len(sites)
    merged: list[SeriesPoint] = []
    for _, i, point in tagged:
        latest[i] = point
        live = [p for p in latest if p is not None]
        merged.append(
            SeriesPoint(
                n_completed=sum(p.n_completed for p in live),
                time=point.time,
                acc_latency=sum(p.acc_latency for p in live),
                energy_joules=sum(p.energy_joules for p in live),
                cost_usd=sum(p.cost_usd for p in live),
                co2_g=sum(p.co2_g for p in live),
            )
        )
    return merged


class FederationEngine:
    """Simulates a fleet of sites against per-site job streams.

    The generalization of the single-cluster engine: all sites share one
    :class:`~repro.sim.events.EventQueue` (one continuous clock), their
    home job streams are merged into a single time-ordered feed, and
    each arrival is routed first by the federation ``broker`` (tier 0),
    then by the chosen site's cluster broker (tier 1), while each
    server's power policy (tier 2) keeps managing sleep states.

    Every job takes one path, with or without telemetry or faults:
    :meth:`place` for arrivals and retries, one finish handler per site
    for completions, and :meth:`_drain` for the event loop. Telemetry
    only adds :class:`~repro.obs.telemetry.Phase` timing around the same
    steps, and a fault runtime only adds a guard that contains broker
    errors and steers around downed capacity.

    Parameters
    ----------
    sites:
        The member sites. Every site's cluster must share the first
        site's event queue.
    broker:
        The federation-tier dispatcher. ``None`` routes every job to its
        home site without any broker call — the zero-overhead static
        baseline, and what :func:`~repro.sim.engine.build_simulation`
        builds.
    """

    #: Event-loop gauges are sampled every this many processed events.
    GAUGE_EVERY = 64

    def __init__(
        self,
        sites: Sequence[Site],
        broker: FederationBroker | None = None,
    ) -> None:
        if not sites:
            raise ValueError("a federation needs at least one site")
        self.sites = list(sites)
        self.broker = broker
        self.events = self.sites[0].cluster.events
        for site in self.sites:
            if site.cluster.events is not self.events:
                raise ValueError(
                    f"site {site.name!r} was built on a different EventQueue; "
                    "all sites of a federation share one event clock"
                )
        # Dropped unrun, an engine still holds the events scheduled at
        # build time (capacity events, crashes), whose callbacks hold
        # servers, which hold the queue: they go with the engine.
        weakref.finalize(self, self.events.clear)
        #: Set by :func:`repro.faults.inject.install_faults`: the guard
        #: that contains broker errors and steers around downed capacity.
        #: ``None`` (the default) makes any broker error abort the run.
        self.faults = None
        # The profiled run's collector and per-job phase timers; every
        # timing step checks ``self._tel is None`` and is skipped then.
        self._tel = None
        self._feed_phase = self._route_phase = self._settle_phase = None
        self._dispatch_phase = None
        # The running merged home-stream feed; None outside run().
        self._feed = None
        self._remote_routed = 0
        self._gauge_names = [f"queue.{site.name}" for site in self.sites]

    def _finish_handler(self, site: Site):
        """Site ``site``'s servers' completion hook, wired for one :meth:`run`.

        The collector reads the site's energy total only when it records
        it (a series point, a tariff interval), not at every completion.
        """
        cluster, metrics = site.cluster, site.metrics
        read_energy = cluster.total_energy

        def handle(job: Job, now: float) -> None:
            tel = self._tel
            if tel is not None:
                self._settle_phase.begin()
            cluster.sync(now)
            metrics.on_completion(job, now, read_energy)
            if tel is not None:
                self._settle_phase.end()

        return handle

    def place(self, job: Job, home: int, now: float, fresh: bool = True) -> None:
        """Route one job to a site and a server: route, guard, settle, dispatch.

        ``fed.route`` is the federation broker's site decision (skipped
        without one); the fault guard, when installed, then steers away
        from a dark site; ``site.settle`` is the chosen site's arrival
        accounting and ledger sync; ``site.dispatch`` the cluster
        broker's server decision (steered off a downed server) plus the
        assignment. Fresh arrivals and the fault runtime's retries share
        this path; a retry (``fresh=False``) is not counted as a new
        arrival.

        One broker-error rule holds at both tiers: a broker that raises,
        or picks an index out of range, aborts the run, unless a fault
        runtime is installed, which counts the error in
        ``broker_fallbacks`` and falls back to the least-loaded live site
        or server. The error is re-raised unbound (a bare ``raise``): a
        frame that held it would be a reference cycle through its
        traceback, keeping the engine alive.
        """
        tel = self._tel
        guard = self.faults
        sites = self.sites
        if self.broker is None:
            target = home
        else:
            if tel is not None:
                self._route_phase.begin()
            try:
                target = self.broker.select_site(job, sites, home, now)
                if not 0 <= target < len(sites):
                    raise ValueError(
                        f"federation broker chose site {target} outside "
                        f"[0, {len(sites)})"
                    )
            except Exception:
                if guard is None:
                    raise
                guard.contain()
                target = guard.fallback_site(home)
            if tel is not None:
                self._route_phase.end()
                if target != home:
                    self._remote_routed += 1
        if guard is not None:
            target = guard.live_site(target)
        site = sites[target]
        cluster = site.cluster
        if tel is not None:
            self._settle_phase.begin()
        if fresh:
            site.metrics.on_arrival(job, now)
        cluster.sync(now)
        if tel is not None:
            self._settle_phase.end()
            self._dispatch_phase.begin()
        try:
            index = site.broker.select_server(job, cluster, now)
            if not 0 <= index < len(cluster):
                raise ValueError(
                    f"broker chose server {index} outside [0, {len(cluster)})"
                )
        except Exception:
            if guard is None:
                raise
            guard.contain()
            index = guard.fallback_server(target)
        else:
            if guard is not None:
                index = guard.live_server(target, index)
        cluster[index].assign(job, now)
        if tel is not None:
            self._dispatch_phase.end()

    def _merged_feed(
        self, streams: Sequence[Iterable[Job]]
    ) -> Iterator[tuple[float, int, Job]]:
        """One time-ordered feed over the per-site home streams.

        Each stream must be sorted by arrival time (validated exactly
        like the single-cluster engine); ties across sites resolve to
        the lower site index. ``heapq.merge`` keeps the merge lazy, so
        streams may be generators of arbitrary length.
        """

        def tagged(index: int, stream: Iterable[Job]) -> Iterator:
            last = -1.0
            for job in stream:
                if job.arrival_time < last:
                    raise ValueError(
                        f"job {job.job_id} arrives at {job.arrival_time}, "
                        f"before the previous arrival at {last}; traces must "
                        "be sorted by arrival time"
                    )
                last = job.arrival_time
                yield (job.arrival_time, index, job)

        return heapq.merge(
            *(tagged(i, stream) for i, stream in enumerate(streams)),
            key=lambda rec: (rec[0], rec[1]),
        )

    def run(self, streams: Sequence[Iterable[Job]]) -> FederationResult:
        """Simulate all home streams to completion.

        ``streams`` holds one job iterable per site (``streams[i]`` is
        site ``i``'s home stream); each must be sorted by arrival time.

        The servers' finish hooks, the merged feed and a fault runtime's
        links back (:meth:`~repro.faults.inject.FaultRuntime.attach`)
        are wired for this call only and dropped when it returns or
        raises, and so are the events a raising run left queued (with
        their callbacks). So a finished engine holds no reference cycle,
        and reference counting frees it, with its sites, brokers and
        replay memories, as soon as its last user drops it.

        Raises
        ------
        ValueError
            If the stream count differs from the site count, or any
            stream's arrival times decrease.
        """
        if len(streams) != len(self.sites):
            raise ValueError(
                f"got {len(streams)} job streams for {len(self.sites)} sites"
            )
        self._feed = self._merged_feed(streams)
        for site in self.sites:
            finish = self._finish_handler(site)
            for server in site.cluster.servers:
                server.on_finish = finish
        if self.faults is not None:
            self.faults.attach(self)
        tel = self._tel = obs.active()
        if tel is not None:
            self._feed_phase = obs.Phase(tel, "run.feed")
            self._route_phase = obs.Phase(tel, "fed.route")
            self._settle_phase = obs.Phase(tel, "site.settle")
            self._dispatch_phase = obs.Phase(tel, "site.dispatch")
            self._remote_routed = 0
            arrived = sum(site.metrics.n_arrived for site in self.sites)
            completed = sum(site.metrics.n_completed for site in self.sites)

        span = obs.get().span
        try:
            with span("run"):
                self._feed_next()
                self._drain()
                with span("run.finalize"):
                    return self._finalize()
        finally:
            self.events.clear()  # a no-op unless the drain was cut short
            self._feed = None
            for site in self.sites:
                for server in site.cluster.servers:
                    server.on_finish = None
            if self.faults is not None:
                self.faults.release()
            if tel is not None:
                self._tel = None
                arrived = sum(s.metrics.n_arrived for s in self.sites) - arrived
                completed = sum(s.metrics.n_completed for s in self.sites) - completed
                for name, n in (
                    ("jobs.arrived", arrived),
                    ("jobs.completed", completed),
                    ("fed.decisions", self._route_phase.calls),
                    ("fed.remote_routed", self._remote_routed),
                    ("cluster.decisions", self._dispatch_phase.calls),
                ):
                    if n:
                        tel.counter(name, n)
                for phase in (
                    self._feed_phase,
                    self._route_phase,
                    self._settle_phase,
                    self._dispatch_phase,
                ):
                    phase.fold()

    def _feed_next(self) -> None:
        """Schedule the feed's next arrival, if any (one arrival queued at a time)."""
        if self._tel is None:
            item = next(self._feed, None)
        else:
            self._feed_phase.begin()
            item = next(self._feed, None)
            self._feed_phase.end()
        if item is None:
            return
        arrival, home, job = item
        self.events.schedule(
            arrival,
            lambda t, job=job, home=home: self._on_arrival(job, home, t),
        )

    def _on_arrival(self, job: Job, home: int, now: float) -> None:
        self.place(job, home, now)
        self._feed_next()

    def _finalize(self) -> FederationResult:
        """Close the accounts after the event queue drains."""
        final_time = self.events.now
        for site in self.sites:
            final_time = max(final_time, site.metrics.final_time)
        for site in self.sites:
            site.cluster.finalize(final_time)
            site.broker.on_run_end(site.cluster, final_time)
            site.cluster.sync(final_time)
            site.metrics.close(final_time, site.cluster.total_energy())
        if self.broker is not None:
            self.broker.on_run_end(self.sites, final_time)
        return FederationResult(
            sites=self.sites,
            final_time=final_time,
            fleet_series=merge_site_series(self.sites),
        )

    def _drain(self) -> None:
        """Run events in time order until the queue is empty.

        With telemetry on, the loop's phases are timed: ``loop.event`` (the
        callback, parent of the route/settle/dispatch phases),
        ``loop.gauges`` (queue sampling every :data:`GAUGE_EVERY`
        events), and ``loop.pop`` — the heap pops plus the loop's own
        bookkeeping, taken as the residual of the drain's wall time so it
        costs nothing per event (its ``max`` is not tracked and reports
        0).
        """
        tel = self._tel
        events = self.events
        executed = 0
        drained = False
        if tel is not None:
            event_phase = obs.Phase(tel, "loop.event")
            gauge_phase = obs.Phase(tel, "loop.gauges")
            t_start = tel.clock()
        try:
            while True:
                event = events.pop()
                if event is None:
                    drained = True
                    break
                executed += 1
                if tel is None:
                    event.callback(event.time)
                    continue
                event_phase.begin()
                event.callback(event.time)
                event_phase.end()
                if executed % self.GAUGE_EVERY == 0:
                    gauge_phase.begin()
                    tel.gauge("events.queue_depth", len(events))
                    for site, name in zip(self.sites, self._gauge_names):
                        tel.gauge(name, float(site.cluster.ledger.queue.sum()))
                    gauge_phase.end()
        finally:
            if tel is not None:
                # Every instant of the drain lands in exactly one of the
                # three loop phases, so self-times still partition.
                loop_s = tel.clock() - t_start
                pop_s = loop_s - event_phase.total_s - gauge_phase.total_s
                pop_phase = obs.Phase(tel, "loop.pop")
                pop_phase.add(max(pop_s, 0.0), executed + drained)
                for phase in (pop_phase, event_phase, gauge_phase):
                    phase.fold()


def build_federation(
    site_args: Sequence[dict],
    broker: FederationBroker | None = None,
    faults: Sequence[SiteFaultPlan | None] | None = None,
) -> FederationEngine:
    """Build a fleet: the one place engines, clusters and sites are made.

    ``site_args`` holds one dict per site. ``num_servers``, ``broker``
    (the site's cluster-tier dispatcher) and ``policies`` are required;
    the rest are optional:

    * ``name`` — site label (default ``site{i}``);
    * ``power_model`` — one :class:`~repro.sim.power.PowerModel` or one
      per server (default ``PowerModel()``);
    * ``num_resources`` (3), ``overload_threshold`` (0.9) and
      ``initially_on`` (False) — as for
      :class:`~repro.sim.cluster.Cluster`;
    * ``record_every`` (100) and ``tariff`` (None) — the site's
      :class:`~repro.sim.metrics.MetricsCollector`;
    * ``capacity_events`` — the site's churn schedule, a sequence of
      :class:`~repro.sim.churn.CapacityEvent` (default none).

    The order is fixed, because it fixes the event queue's tie-breaks:
    every site's cluster on one new clock, then each site's
    ``capacity_events``, then the :class:`FederationEngine` under the
    federation ``broker``, then ``faults`` — one
    :class:`~repro.faults.plan.SiteFaultPlan` or ``None`` per site, or
    ``None`` for no fault runtime at all.
    """
    events = EventQueue()
    sites: list[Site] = []
    churn = []
    for i, args in enumerate(site_args):
        args = dict(args)
        power_model = args.pop("power_model", None)
        sites.append(
            Site(
                name=args.pop("name", f"site{i}"),
                cluster=Cluster(
                    num_servers=args.pop("num_servers"),
                    power_model=PowerModel() if power_model is None else power_model,
                    events=events,
                    policies=args.pop("policies"),
                    num_resources=args.pop("num_resources", 3),
                    overload_threshold=args.pop("overload_threshold", 0.9),
                    initially_on=args.pop("initially_on", False),
                ),
                broker=args.pop("broker"),
                metrics=MetricsCollector(
                    record_every=args.pop("record_every", 100),
                    tariff=args.pop("tariff", None),
                ),
            )
        )
        churn.append(args.pop("capacity_events", ()))
        if args:
            raise ValueError(f"unknown site arguments {sorted(args)}")
    for site, site_churn in zip(sites, churn):
        schedule_capacity_events(site.cluster, site_churn)
    engine = FederationEngine(sites, broker)
    if faults is not None:
        from repro.faults.inject import install_faults

        install_faults(engine, faults)
    return engine
