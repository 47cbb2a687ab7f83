"""Job (VM request) model.

A job is what the paper extracts from the Google cluster-usage traces:
an arrival time, a duration (pure execution time once resources are
granted), and a resource demand vector (CPU, memory, disk — normalized by
the capacity of one server). Latency is completion minus arrival and
therefore includes queueing delay and any server boot delay (Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Resource vector index conventions used across the library.
CPU, MEM, DISK = 0, 1, 2
RESOURCE_NAMES = ("cpu", "mem", "disk")


@dataclass
class Job:
    """A VM (job) request.

    Parameters
    ----------
    job_id:
        Unique identifier within a trace.
    arrival_time:
        Simulated arrival time in seconds; finite and non-negative.
    duration:
        Execution time in seconds once resources are granted (paper: jobs
        between 1 minute and 2 hours); finite and positive.
    resources:
        Demand per resource type, each in ``(0, 1]`` as a fraction of one
        server's capacity.
    """

    job_id: int
    arrival_time: float
    duration: float
    resources: tuple[float, ...]

    # Runtime fields filled in by the simulator.
    server_id: int | None = field(default=None, compare=False)
    start_time: float | None = field(default=None, compare=False)
    finish_time: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Written so that NaN fails too: it compares false with anything.
        if not 0 <= self.arrival_time < math.inf:
            raise ValueError(f"job {self.job_id}: arrival time must be finite and >= 0")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"job {self.job_id}: duration must be finite and positive")
        if not self.resources:
            raise ValueError(f"job {self.job_id}: empty resource vector")
        for name, demand in zip(RESOURCE_NAMES, self.resources):
            if not 0.0 < demand <= 1.0:
                raise ValueError(
                    f"job {self.job_id}: {name} demand {demand} outside (0, 1]"
                )

    @property
    def cpu(self) -> float:
        """CPU demand as a fraction of one server."""
        return self.resources[CPU]

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queueing + boot wait + execution).

        Raises
        ------
        RuntimeError
            If the job has not completed yet.
        """
        if self.finish_time is None:
            raise RuntimeError(f"job {self.job_id} has not completed")
        return self.finish_time - self.arrival_time

    @property
    def wait_time(self) -> float:
        """Arrival-to-start time (latency minus pure execution)."""
        if self.start_time is None:
            raise RuntimeError(f"job {self.job_id} has not started")
        return self.start_time - self.arrival_time

    def copy(self) -> "Job":
        """Fresh, un-run copy of this job."""
        return Job(self.job_id, self.arrival_time, self.duration, self.resources)
