"""Engine-side fault runtime: crashes, failures, stragglers, guarding.

:func:`install_faults` threads a resolved set of
:class:`~repro.faults.plan.SiteFaultPlan`\\ s into a running
:class:`~repro.sim.federation.FederationEngine`:

* each server's finish scheduling is taken over (stragglers stretch the
  service time, job failures fire at the would-be finish), with handles
  retained so a crash can cancel in-flight work;
* crash events kill running jobs and drain the queue — victims
  re-enqueue through a retry budget with exponential backoff, and the
  crashed server's capacity drops to zero until recovery;
* the runtime becomes the engine's guard: the engine still places every
  arrival and retry itself
  (:meth:`~repro.sim.federation.FederationEngine.place`), and calls
  the guard to steer around downed servers and dark sites and to
  contain broker errors (an exception, or an out-of-range pick, at
  either tier) with a least-loaded fallback instead of aborting the
  run.

Discipline inherited from the telemetry work: when no faults are
configured the runtime is never installed and the engine never calls a
guard; when installed with *null* specs it schedules the identical
finish events (same times, same effects, same event order) and draws
nothing from any random stream, so inert injection stays bit-identical
— asserted by the zero-fault identity tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.plan import SiteFaultPlan
from repro.faults.spec import FaultSpec
from repro.obs import telemetry as obs
from repro.sim.server import PowerState, Server

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.federation import FederationEngine
    from repro.sim.job import Job

_NULL_SPEC = FaultSpec()


def _count(name: str, n: int = 1) -> None:
    """Bump an obs counter when telemetry is recording (else free)."""
    tel = obs.active()
    if tel is not None:
        tel.counter(name, n)


class SiteFaultState:
    """Mutable per-site fault state: rng streams, handles, downtime."""

    def __init__(self, site_index: int, plan: SiteFaultPlan | None) -> None:
        self.site_index = site_index
        self.plan = plan
        self.spec = plan.spec if plan is not None else _NULL_SPEC
        if plan is not None and (
            self.spec.job_failure_prob > 0.0 or self.spec.straggler_prob > 0.0
        ):
            fail_seq, straggler_seq = np.random.SeedSequence(plan.seed).spawn(2)
            self.fail_rng = np.random.default_rng(fail_seq)
            self.straggler_rng = np.random.default_rng(straggler_seq)
        else:
            self.fail_rng = None
            self.straggler_rng = None
        #: Finish events we scheduled, by job id (cancelled on crash).
        self.finish_events: dict[int, object] = {}
        self.down: set[int] = set()
        self._down_since: dict[int, float] = {}
        self.downtime: float = 0.0
        # Tallies for result payloads.
        self.crashes = 0
        self.jobs_killed = 0
        self.stragglers = 0
        #: The runtime, while a run is in flight (:meth:`FaultRuntime.attach`).
        self.runtime: "FaultRuntime | None" = None

    # -- job lifecycle --------------------------------------------------

    def start_job(self, server: Server, job: "Job", now: float) -> None:
        """Schedule the (possibly faulted) finish for a job starting now."""
        duration = job.duration
        spec = self.spec
        if (
            spec.straggler_prob > 0.0
            and self.straggler_rng.random() < spec.straggler_prob
        ):
            duration = duration * spec.straggler_factor
            self.stragglers += 1
            _count("faults.stragglers")
        self.finish_events[job.job_id] = server.events.schedule(
            now + duration,
            lambda t, server=server, job=job: self._finish(server, job, t),
        )

    def _finish(self, server: Server, job: "Job", now: float) -> None:
        """Our finish event fired: complete the job, or fail it."""
        self.finish_events.pop(job.job_id, None)
        spec = self.spec
        if (
            spec.job_failure_prob > 0.0
            and self.fail_rng.random() < spec.job_failure_prob
        ):
            server.kill_job(job, now)
            self.runtime.requeue(job, self.site_index, now)
            return
        self.runtime.attempts.pop(job.job_id, None)
        server._finish_job(job, now)

    # -- crash / recovery -----------------------------------------------

    def crash(self, server: Server, now: float, recovery: float) -> None:
        """Take a server down: kill its work, requeue it, schedule recovery.

        Overlapping crash windows collapse first-crash-wins: a crash on
        an already-down server is a no-op, so the earliest scheduled
        recovery reopens it.
        """
        sid = server.server_id
        if sid in self.down:
            return
        self.down.add(sid)
        self._down_since[sid] = now
        self.crashes += 1
        _count("faults.crashes")
        server.set_capacity(now, 0.0)
        victims = list(server.running.values())
        for job in victims:
            handle = self.finish_events.pop(job.job_id, None)
            if handle is not None:
                handle.cancel()
            server.kill_job(job, now)
            self.jobs_killed += 1
        queued = server.take_pending(now)
        if (
            server.state is PowerState.ACTIVE
            and not server.running
            and not server.pending
        ):
            server._enter_idle(now)
        for job in victims:
            self.runtime.requeue(job, self.site_index, now)
        for job in queued:
            self.runtime.requeue(job, self.site_index, now)
        server.events.schedule(
            now + recovery,
            lambda t, server=server: self.recover(server, t),
        )

    def recover(self, server: Server, now: float) -> None:
        sid = server.server_id
        if sid not in self.down:
            return
        self.down.discard(sid)
        self.downtime += now - self._down_since.pop(sid)
        server.set_capacity(now, 1.0)

    def availability(self, final_time: float, num_servers: int) -> float:
        """Fraction of server-time up over the run, in [0, 1]."""
        if final_time <= 0.0 or num_servers <= 0:
            return 1.0
        total_down = self.downtime + sum(
            final_time - since for since in self._down_since.values()
        )
        return max(0.0, 1.0 - total_down / (num_servers * final_time))


class FaultRuntime:
    """Fault orchestration across the whole federation.

    Owns the per-site states and the retry ledger, and is the engine's
    guard (installed onto it by :func:`install_faults`): the engine
    calls :meth:`contain`, :meth:`fallback_site` / :meth:`live_site` and
    :meth:`fallback_server` / :meth:`live_server` while placing a job.

    The links back from the engine's objects — :attr:`engine`, each
    state's ``runtime`` and every server's ``faults`` — exist only while
    a run is in flight (:meth:`attach` to :meth:`release`, both called
    by :meth:`~repro.sim.federation.FederationEngine.run`), so a finished
    engine is no reference cycle. The tallies and the availability
    inputs stay for the run's summary.
    """

    def __init__(
        self,
        engine: "FederationEngine",
        plans: Sequence[SiteFaultPlan | None],
    ) -> None:
        if len(plans) != len(engine.sites):
            raise ValueError(
                f"got {len(plans)} fault plans for {len(engine.sites)} sites"
            )
        self.engine: "FederationEngine | None" = None
        self.states = [SiteFaultState(i, plan) for i, plan in enumerate(plans)]
        #: Servers per site, which availability reads after the run.
        self.site_sizes = [len(site.cluster) for site in engine.sites]
        #: Retry counts by job id (absent = fresh job).
        self.attempts: dict[int, int] = {}
        self.broker_fallbacks = 0
        self.rerouted = 0

    # -- installation ---------------------------------------------------

    def install(self, engine: "FederationEngine") -> None:
        """Become ``engine``'s guard and schedule every planned crash."""
        engine.faults = self
        for index, site in enumerate(engine.sites):
            state = self.states[index]
            if state.plan is not None:
                servers = site.cluster.servers
                for event in state.plan.crashes:
                    server = servers[event.server_id]
                    engine.events.schedule(
                        event.time,
                        lambda t, state=state, server=server, rec=event.recovery: (
                            state.crash(server, t, rec)
                        ),
                    )

    def attach(self, engine: "FederationEngine") -> None:
        """Wire the links back from ``engine`` for one run."""
        self.engine = engine
        for state, site in zip(self.states, engine.sites):
            state.runtime = self
            for server in site.cluster.servers:
                server.faults = state

    def release(self) -> None:
        """Drop the links :meth:`attach` made, once the run has ended."""
        for state, site in zip(self.states, self.engine.sites):
            state.runtime = None
            for server in site.cluster.servers:
                server.faults = None
        self.engine = None

    # -- the engine's guard ---------------------------------------------

    def contain(self) -> None:
        """Count one broker error the engine contained instead of raising."""
        self.broker_fallbacks += 1
        _count("faults.broker_fallbacks")

    def _reroute(self) -> None:
        self.rerouted += 1
        _count("faults.rerouted")

    def fallback_site(self, home: int) -> int:
        """Least-loaded site with at least one live server (else home)."""
        best: int | None = None
        best_load = 0.0
        for i, site in enumerate(self.engine.sites):
            if len(self.states[i].down) >= len(site.cluster):
                continue
            load = float(site.cluster.ledger.in_system.sum())
            if best is None or load < best_load:
                best, best_load = i, load
        return home if best is None else best

    def live_site(self, target: int) -> int:
        """``target``, or the least-loaded live site if ``target`` is dark.

        When every site is dark the job queues at ``target`` anyway:
        work starts once recovery restores capacity.
        """
        sites = self.engine.sites
        dark = len(self.states[target].down) >= len(sites[target].cluster)
        if dark and len(sites) > 1:
            rerouted_to = self.fallback_site(target)
            if rerouted_to != target:
                self._reroute()
                return rerouted_to
        return target

    def fallback_server(self, site_index: int) -> int:
        """Least-loaded live server (lowest id wins ties; 0 if all down)."""
        down = self.states[site_index].down
        best: int | None = None
        best_load = 0
        for server in self.engine.sites[site_index].cluster.servers:
            if server.server_id in down:
                continue
            load = server.jobs_in_system
            if best is None or load < best_load:
                best, best_load = server.server_id, load
        return 0 if best is None else best

    def live_server(self, site_index: int, index: int) -> int:
        """``index``, or the least-loaded live server if ``index`` is down."""
        if index in self.states[site_index].down:
            self._reroute()
            return self.fallback_server(site_index)
        return index

    # -- retry ledger ---------------------------------------------------

    def requeue(self, job: "Job", site_index: int, now: float) -> None:
        """Re-enqueue a killed/failed job, or fail it past the budget."""
        spec = self.states[site_index].spec
        site = self.engine.sites[site_index]
        n = self.attempts.get(job.job_id, 0) + 1
        if n > spec.max_retries:
            self.attempts.pop(job.job_id, None)
            site.metrics.on_failure(job, now)
            _count("faults.jobs_failed")
            return
        self.attempts[job.job_id] = n
        site.metrics.on_retry(job, now)
        _count("faults.retries")
        delay = spec.retry_backoff_s * (2.0 ** (n - 1))
        self.engine.events.schedule(
            now + delay,
            lambda t, job=job, home=site_index: self.engine.place(
                job, home, t, fresh=False
            ),
        )

    # -- result payload helpers -----------------------------------------

    def site_availability(self, index: int, final_time: float) -> float:
        return self.states[index].availability(final_time, self.site_sizes[index])

    def fleet_availability(self, final_time: float) -> float:
        """Server-time-weighted availability across every site."""
        total = sum(self.site_sizes)
        if total <= 0:
            return 1.0
        weighted = sum(
            self.site_availability(i, final_time) * size
            for i, size in enumerate(self.site_sizes)
        )
        return weighted / total

    @property
    def total_crashes(self) -> int:
        return sum(state.crashes for state in self.states)

    @property
    def total_jobs_killed(self) -> int:
        return sum(state.jobs_killed for state in self.states)

    @property
    def total_stragglers(self) -> int:
        return sum(state.stragglers for state in self.states)


def install_faults(
    engine: "FederationEngine", plans: Sequence[SiteFaultPlan | None]
) -> FaultRuntime:
    """Attach a fault runtime to ``engine`` (one plan per site, None ok)."""
    runtime = FaultRuntime(engine, plans)
    runtime.install(engine)
    return runtime
