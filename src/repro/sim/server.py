"""Power-managed server with an FCFS job queue.

State machine (Sec. III of the paper):

    SLEEP --arrival--> BOOTING --Ton--> ACTIVE
    ACTIVE --queue drained--> IDLE          (DPM decision epoch, case 1)
    IDLE --arrival--> ACTIVE                (decision epoch, case 2)
    IDLE --timeout--> SHUTTING_DOWN --Toff--> SLEEP
    SLEEP --arrival--> BOOTING              (decision epoch, case 3)
    SHUTTING_DOWN --arrival--> (queued; reboot right after sleep is reached)

Jobs are granted resources strictly first-come-first-serve with
head-of-line blocking: if the queue head does not fit in the remaining
capacity it waits, and everything behind it waits too.

Energy, queue-length, utilization and overload *time integrals* are
maintained exactly by accounting for the elapsed interval at every state
or utilization change point.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.job import CPU, Job
from repro.sim.ledger import ClusterLedger
from repro.sim.power import PowerModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.interfaces import PowerPolicy

_EPS = 1e-9


class PowerState(enum.Enum):
    """Power mode of a server."""

    SLEEP = "sleep"
    BOOTING = "booting"
    ACTIVE = "active"
    IDLE = "idle"
    SHUTTING_DOWN = "shutting_down"

    @property
    def is_on(self) -> bool:
        """True when the server can execute jobs (active or idle)."""
        return self is _ACTIVE or self is _IDLE


# The members as module globals, in definition order: hot code compares
# ``self._state`` with these, since reading a member off the Enum class
# costs several times a global read.
_SLEEP, _BOOTING, _ACTIVE, _IDLE, _SHUTTING_DOWN = PowerState


class Server:
    """One physical machine in the cluster.

    Parameters
    ----------
    server_id:
        Index within the cluster.
    power_model:
        Power/transition characteristics.
    events:
        The shared simulation event queue.
    policy:
        The local-tier DPM policy controlling this server.
    num_resources:
        Number of resource dimensions D (default 3: CPU, mem, disk).
    overload_threshold:
        CPU utilization above which the server counts as a hot spot for
        the reliability term of the global reward.
    initially_on:
        Start in IDLE (True) or SLEEP (False, the default — the paper's
        Fig. 4 example starts asleep).
    ledger, ledger_index:
        The :class:`~repro.sim.ledger.ClusterLedger` row this server
        writes its observables and time integrals into. A cluster passes
        its shared ledger; a standalone server allocates a private
        one-row ledger, so the public attributes behave identically.
    """

    def __init__(
        self,
        server_id: int,
        power_model: PowerModel,
        events: EventQueue,
        policy: "PowerPolicy",
        num_resources: int = 3,
        overload_threshold: float = 0.9,
        initially_on: bool = False,
        ledger: ClusterLedger | None = None,
        ledger_index: int = 0,
    ) -> None:
        if num_resources < 1:
            raise ValueError("need at least one resource dimension")
        if not 0.0 < overload_threshold <= 1.0:
            raise ValueError(
                f"overload_threshold must be in (0, 1], got {overload_threshold}"
            )
        self.server_id = int(server_id)
        self.power_model = power_model
        self.events = events
        self.policy = policy
        self.num_resources = int(num_resources)
        self.overload_threshold = float(overload_threshold)

        if ledger is None:
            ledger = ClusterLedger(1, self.num_resources)
            ledger_index = 0
        self._ledger = ledger
        self._index = int(ledger_index)

        self._state = _IDLE if initially_on else _SLEEP
        self.capacity = np.ones(self.num_resources)
        #: Resources in use — a view into the ledger's utilization matrix,
        #: mutated strictly in place.
        self.used = ledger.util[self._index]
        self.pending: deque[Job] = deque()
        self.running: dict[int, Job] = {}

        # Bookkeeping.
        self.jobs_assigned = 0
        self.jobs_completed = 0
        self.last_arrival_time: float | None = None
        self.wakeups = 0  # sleep->boot transitions
        self.idle_entries = 0  # DPM case-1 decision epochs

        self._timeout_event: ScheduledEvent | None = None
        self._transition_event: ScheduledEvent | None = None
        #: Set by the engine for the length of a run: called as
        #: ``on_finish(job, now)`` at completion.
        self.on_finish: Callable[[Job, float], None] | None = None
        #: Set by the fault runtime for the length of a run: a per-site
        #: ``SiteFaultState`` that owns job-finish scheduling
        #: (stragglers, failures) when faults are injected. ``None``
        #: keeps the fault-free fast path.
        self.faults = None
        self._refresh()

    # ------------------------------------------------------------------
    # Ledger-backed state
    # ------------------------------------------------------------------

    @property
    def state(self) -> PowerState:
        """Power mode; assignment refreshes the ledger observables."""
        return self._state

    @state.setter
    def state(self, value: PowerState) -> None:
        self._state = value
        self._refresh()

    def _refresh(self) -> None:
        """Re-derive this row's ledger observables after a change point.

        Must run *after* :meth:`account`-then-mutate sequences so the
        rates in the ledger describe the interval that starts now.
        """
        i = self._index
        ledger = self._ledger
        state = self._state
        ledger.on[i] = 1.0 if state.is_on else 0.0
        ledger.queue[i] = len(self.pending)
        ledger.in_system[i] = len(self.pending) + len(self.running)
        cpu = self.cpu_utilization if state is _ACTIVE else 0.0
        ledger.overload_excess[i] = max(0.0, cpu - self.overload_threshold)
        ledger.power[i] = self.current_power()

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------

    @property
    def energy_joules(self) -> float:
        """Exact energy integral in joules."""
        return float(self._ledger.energy[self._index])

    @property
    def queue_integral(self) -> float:
        """Waiting jobs × seconds."""
        return float(self._ledger.queue_int[self._index])

    @property
    def system_integral(self) -> float:
        """(Waiting + running) jobs × seconds."""
        return float(self._ledger.system_int[self._index])

    @property
    def overload_integral(self) -> float:
        """max(0, cpu − threshold) × seconds."""
        return float(self._ledger.overload_int[self._index])

    @property
    def _last_account(self) -> float:
        return float(self._ledger.last_account[self._index])

    @property
    def cpu_utilization(self) -> float:
        """Current CPU utilization in [0, 1]."""
        return float(min(self.used[CPU], 1.0))

    @property
    def queue_length(self) -> int:
        """Number of assigned-but-not-started jobs."""
        return len(self.pending)

    @property
    def jobs_in_system(self) -> int:
        """Waiting plus running jobs."""
        return len(self.pending) + len(self.running)

    def current_power(self) -> float:
        """Instantaneous power draw in watts, by state and utilization."""
        state = self._state
        if state is _ACTIVE:
            return self.power_model.active_power(self.cpu_utilization)
        if state is _IDLE:
            return self.power_model.active_power(0.0)
        if state is _SLEEP:
            return self.power_model.sleep_power
        return float(self.power_model.transition_power)

    def remaining(self) -> np.ndarray:
        """Free capacity per resource dimension."""
        return self.capacity - self.used

    @property
    def capacity_fraction(self) -> float:
        """Current capacity scale in [0, 1] (1 = fully available)."""
        return float(self.capacity[CPU])

    def set_capacity(self, now: float, fraction: float) -> None:
        """Scale available capacity (maintenance drain / failure / restore).

        ``fraction`` is the usable share of every resource dimension:
        0 models a failed or fully drained server, values in (0, 1) a
        partial drain, and 1 restores full capacity. Running jobs are
        never killed — a drain is graceful: even when the new capacity
        drops below a running job's demand, the job runs to completion
        and ``used`` may exceed capacity until it finishes; queued work
        waits (head-of-line) until capacity returns. Restoring capacity
        starts any queued jobs that now fit. Callers that need forced
        eviction (an unplanned crash rather than a planned drain) use
        :meth:`kill_job`, which releases resources immediately and
        leaves re-enqueueing to the fault runtime.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"capacity fraction must be in [0, 1], got {fraction}")
        self.account(now)
        self.capacity = np.full(self.num_resources, fraction)
        if self._state is _ACTIVE:
            self._try_start_jobs(now)
        else:
            self._refresh()

    def fits(self, job: Job) -> bool:
        """Whether ``job`` fits in the current free capacity.

        ``used + demand <= capacity + _EPS`` in every dimension, compared
        on Python floats: the array form's doubles, without allocating.
        """
        for used, demand, capacity in zip(
            self.used.tolist(), job.resources, self.capacity.tolist()
        ):
            if not used + demand <= capacity + _EPS:
                return False
        return True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def account(self, now: float) -> None:
        """Integrate all per-time metrics up to ``now``.

        Idempotent at a fixed ``now``; must be called before any state or
        utilization change. Uses the rates maintained in the ledger row
        (kept current by ``_refresh`` at every change point), so a
        cluster-wide vectorized :meth:`~repro.sim.ledger.ClusterLedger.sync`
        performs element-wise exactly this arithmetic.
        """
        i = self._index
        ledger = self._ledger
        dt = now - ledger.last_account[i]
        if dt < -_EPS:
            raise RuntimeError(
                f"server {self.server_id}: accounting time went backwards "
                f"({now} < {ledger.last_account[i]})"
            )
        if dt <= 0.0:
            ledger.last_account[i] = now
            return
        ledger.energy[i] += ledger.power[i] * dt
        ledger.queue_int[i] += ledger.queue[i] * dt
        ledger.system_int[i] += ledger.in_system[i] * dt
        ledger.overload_int[i] += ledger.overload_excess[i] * dt
        ledger.last_account[i] = now

    # ------------------------------------------------------------------
    # Job flow
    # ------------------------------------------------------------------

    def assign(self, job: Job, now: float) -> None:
        """Accept a job dispatched by the broker at time ``now``."""
        self.account(now)
        job.server_id = self.server_id
        self.pending.append(job)
        self.jobs_assigned += 1
        self.last_arrival_time = now
        self.policy.on_job_assigned(self, job, now)

        state = self._state
        if state is _ACTIVE:
            self._try_start_jobs(now)
        elif state is _IDLE:
            self._cancel_timeout()
            self.state = _ACTIVE
            self.policy.on_active(self, now, from_sleep=False)
            self._try_start_jobs(now)
        elif state is _SLEEP:
            self._begin_boot(now)
            self.policy.on_active(self, now, from_sleep=True)
        else:
            # BOOTING / SHUTTING_DOWN: the job waits in the queue; the
            # pending transition completes first (Fig. 4a semantics). No
            # state change happened, so refresh the queue depth here.
            self._refresh()

    def _try_start_jobs(self, now: float) -> None:
        """Start queued jobs FCFS while the head fits (head-of-line blocking)."""
        while self.pending and self.fits(self.pending[0]):
            job = self.pending.popleft()
            demand = np.asarray(job.resources[: self.num_resources])
            self.used += demand
            job.start_time = now
            self.running[job.job_id] = job
            if self.faults is None:
                finish_time = now + job.duration
                self.events.schedule(
                    finish_time,
                    lambda t, job=job: self._finish_job(job, t),
                    kind=f"finish:{job.job_id}",
                )
            else:
                # The fault runtime owns the finish event: it may
                # stretch the duration (straggler) or turn the finish
                # into a failure, and it keeps a handle so a crash can
                # cancel it. With a null spec it schedules the identical
                # event (same time, same kind, same effects).
                self.faults.start_job(self, job, now)
        self._refresh()

    def _finish_job(self, job: Job, now: float) -> None:
        self.account(now)
        del self.running[job.job_id]
        demand = np.asarray(job.resources[: self.num_resources])
        np.maximum(self.used - demand, 0.0, out=self.used)
        job.finish_time = now
        self.jobs_completed += 1
        self._try_start_jobs(now)
        if self.on_finish is not None:
            self.on_finish(job, now)
        if not self.running and not self.pending and self._state is _ACTIVE:
            self._enter_idle(now)

    def kill_job(self, job: Job, now: float) -> None:
        """Forcibly evict a running job (crash / failed-at-finish path).

        The mirror of :meth:`_finish_job` without the completion:
        resources are released and the queue is re-examined, but the job
        is not counted completed, no finish time is stamped, and the
        engine's ``on_finish`` hook does not fire. The caller decides
        the job's fate (typically re-enqueue through the fault runtime's
        retry path). The caller must also cancel or supersede any finish
        event still scheduled for the job.
        """
        self.account(now)
        del self.running[job.job_id]
        demand = np.asarray(job.resources[: self.num_resources])
        np.maximum(self.used - demand, 0.0, out=self.used)
        self._try_start_jobs(now)
        if not self.running and not self.pending and self._state is _ACTIVE:
            self._enter_idle(now)

    def take_pending(self, now: float) -> list[Job]:
        """Drain the waiting queue (crash path) and return the removed jobs."""
        self.account(now)
        jobs = list(self.pending)
        self.pending.clear()
        self._refresh()
        return jobs

    # ------------------------------------------------------------------
    # Power management
    # ------------------------------------------------------------------

    def _enter_idle(self, now: float) -> None:
        """Decision epoch case 1: queue drained, ask the policy for a timeout."""
        self.state = _IDLE
        self.idle_entries += 1
        timeout = float(self.policy.on_idle(self, now))
        if math.isnan(timeout) or timeout < 0.0:
            raise ValueError(
                f"policy returned invalid timeout {timeout} for server {self.server_id}"
            )
        if timeout == 0.0:
            self._begin_shutdown(now)
        elif not math.isinf(timeout):
            self._timeout_event = self.events.schedule_in(
                timeout,
                self._on_timeout,
                kind=f"timeout:{self.server_id}",
            )
        # timeout == inf: stay idle until the next arrival (always-on).

    def _on_timeout(self, now: float) -> None:
        self._timeout_event = None
        if self._state is not _IDLE:
            return  # stale: a job arrived at the same instant
        self.account(now)
        self._begin_shutdown(now)

    def _begin_shutdown(self, now: float) -> None:
        self.state = _SHUTTING_DOWN
        self._transition_event = self.events.schedule_in(
            self.power_model.t_off,
            self._on_shutdown_complete,
            kind=f"sleep:{self.server_id}",
        )

    def _on_shutdown_complete(self, now: float) -> None:
        self.account(now)
        self._transition_event = None
        self.state = _SLEEP
        if self.pending:
            # Jobs arrived while shutting down: reboot immediately.
            self._begin_boot(now)

    def _begin_boot(self, now: float) -> None:
        self.state = _BOOTING
        self.wakeups += 1
        self._transition_event = self.events.schedule_in(
            self.power_model.t_on,
            self._on_boot_complete,
            kind=f"boot:{self.server_id}",
        )

    def _on_boot_complete(self, now: float) -> None:
        self.account(now)
        self._transition_event = None
        self.state = _ACTIVE
        self._try_start_jobs(now)
        if not self.running and not self.pending:
            self._enter_idle(now)

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    def finalize(self, now: float) -> None:
        """Account trailing time and notify the policy that the run ended."""
        self.account(now)
        self.policy.on_run_end(self, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(id={self.server_id}, state={self.state.value}, "
            f"running={len(self.running)}, pending={len(self.pending)}, "
            f"cpu={self.cpu_utilization:.2f})"
        )
