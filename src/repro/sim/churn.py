"""Scheduled capacity churn: server failures and maintenance drains.

Real fleets lose capacity on a schedule the controller does not choose —
kernel reboots, hardware swaps, rolling maintenance waves. This module
models those as *capacity events*: at ``time`` a server's usable capacity
drops to ``fraction`` of nominal, and ``duration`` seconds later it is
restored. Drains are graceful (running jobs finish; queued work waits),
matching how production maintenance cordons a machine rather than
killing its tenants.

Events are scheduled on the cluster's own :class:`~repro.sim.events.EventQueue`
before (or during) a run, so they interleave deterministically with job
arrivals and DPM timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.cluster import Cluster


@dataclass(frozen=True)
class CapacityEvent:
    """One scheduled capacity change on one server.

    Parameters
    ----------
    time:
        Absolute simulated time (seconds) the drain begins.
    server_id:
        Index of the affected server within the cluster.
    duration:
        Seconds until full capacity is restored.
    fraction:
        Usable capacity share during the event (0 = failure/full drain).
    """

    time: float
    server_id: int
    duration: float
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time}")
        if self.server_id < 0:
            raise ValueError(f"server_id must be non-negative, got {self.server_id}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")


def schedule_capacity_events(
    cluster: "Cluster", capacity_events: Iterable[CapacityEvent]
) -> int:
    """Schedule drain/restore callbacks for every event; returns the count.

    Overlapping events on the same server are applied in time order; the
    restore always resets capacity to 1.0 (nominal), so the last restore
    wins — builders of churn schedules should keep per-server events
    disjoint if partial drains must compose.
    """
    count = 0
    for event in capacity_events:
        if event.server_id >= len(cluster):
            raise ValueError(
                f"capacity event targets server {event.server_id} but the "
                f"cluster has {len(cluster)} servers"
            )
        server = cluster[event.server_id]
        cluster.events.schedule(
            event.time,
            lambda t, s=server, f=event.fraction: s.set_capacity(t, f),
        )
        cluster.events.schedule(
            event.time + event.duration,
            lambda t, s=server: s.set_capacity(t, 1.0),
        )
        count += 2
    return count
