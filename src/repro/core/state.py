"""Global-tier state encoding.

The paper's state at job j's arrival is

    s = [g_1, ..., g_K, s_j]
      = [u_11, ..., u_1|D|, ..., u_|M||D|, u_j1, ..., u_j|D|, d_j]

— the utilization of every resource of every server (grouped into K
equal server groups), followed by the job's resource demands and its
(estimated) duration. This module builds that vector from a live
:class:`~repro.sim.cluster.Cluster` and a :class:`~repro.sim.job.Job`,
and knows how to slice it back into group blocks for the Q-network.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import as_batch
from repro.sim.cluster import Cluster
from repro.sim.job import Job


class StateEncoder:
    """Encodes (cluster, job) into the paper's flat state vector.

    Parameters
    ----------
    num_servers, num_resources:
        M and D.
    num_groups:
        K; must divide M ("all the M servers can be equally divided
        into K groups").
    max_duration:
        Normalizer for the job-duration feature (paper jobs cap at 2 h).
    include_power_state:
        Append a per-server on/off bit to each server's block. The
        paper's state lists utilizations only, but a sleeping server and
        an empty awake one are then indistinguishable even though one
        costs a Ton boot delay — this bit restores the Markov property.
    include_queue_state:
        Append a per-server (saturating) queue-depth feature. Under FCFS
        head-of-line blocking, a deep queue behind identical utilization
        predicts very different future latency; without this feature the
        DRL agent cannot learn to avoid queueing servers.
    queue_scale:
        Queue depth that saturates the queue feature at 1.0.
    """

    def __init__(
        self,
        num_servers: int,
        num_resources: int = 3,
        num_groups: int = 3,
        max_duration: float = 7200.0,
        include_power_state: bool = True,
        include_queue_state: bool = True,
        queue_scale: float = 10.0,
    ) -> None:
        if num_servers < 1 or num_resources < 1 or num_groups < 1:
            raise ValueError("num_servers, num_resources, num_groups must be positive")
        if num_servers % num_groups != 0:
            raise ValueError(
                f"num_servers ({num_servers}) not divisible by "
                f"num_groups ({num_groups})"
            )
        if max_duration <= 0:
            raise ValueError(f"max_duration must be positive, got {max_duration}")
        self.num_servers = int(num_servers)
        self.num_resources = int(num_resources)
        self.num_groups = int(num_groups)
        if queue_scale <= 0:
            raise ValueError(f"queue_scale must be positive, got {queue_scale}")
        self.max_duration = float(max_duration)
        self.include_power_state = bool(include_power_state)
        self.include_queue_state = bool(include_queue_state)
        self.queue_scale = float(queue_scale)

        self.per_server_dim = (
            self.num_resources
            + (1 if include_power_state else 0)
            + (1 if include_queue_state else 0)
        )
        self.group_size = self.num_servers // self.num_groups
        self.group_dim = self.group_size * self.per_server_dim
        self.job_dim = self.num_resources + 1
        self.state_dim = self.num_groups * self.group_dim + self.job_dim

    def encode(self, cluster: Cluster, job: Job) -> np.ndarray:
        """Build the state vector at ``job``'s arrival epoch.

        Fast path: the cluster maintains its utilization / power-state /
        queue arrays incrementally (see
        :class:`~repro.sim.ledger.ClusterLedger`), so encoding is slice
        assignment into one preallocated vector — no per-server object
        traversal at the decision epoch.

        Raises
        ------
        ValueError
            If the cluster shape disagrees with the encoder.
        """
        if len(cluster) != self.num_servers:
            raise ValueError(
                f"cluster has {len(cluster)} servers, "
                f"encoder expects {self.num_servers}"
            )
        util, power_on, queue = cluster.state_views()
        out = np.empty(self.state_dim)
        server_block = out[: self.num_servers * self.per_server_dim].reshape(
            self.num_servers, self.per_server_dim
        )
        server_block[:, : self.num_resources] = util[:, : self.num_resources]
        col = self.num_resources
        if self.include_power_state:
            server_block[:, col] = power_on
            col += 1
        if self.include_queue_state:
            np.minimum(queue / self.queue_scale, 1.0, out=server_block[:, col])
        # Job block, written in place (same values as encode_job).
        job_off = self.num_servers * self.per_server_dim
        demands = out[job_off : job_off + self.num_resources]
        demands[:] = 0.0
        take = min(len(job.resources), self.num_resources)
        demands[:take] = job.resources[:take]
        out[-1] = min(job.duration / self.max_duration, 1.0)
        return out

    def encode_job(self, job: Job) -> np.ndarray:
        """The ``s_j`` block: demands plus normalized duration."""
        demands = np.zeros(self.num_resources)
        take = min(len(job.resources), self.num_resources)
        demands[:take] = job.resources[:take]
        duration = min(job.duration / self.max_duration, 1.0)
        return np.concatenate([demands, [duration]])

    # ------------------------------------------------------------------
    # Slicing helpers for the Q-network
    # ------------------------------------------------------------------

    def split(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a state batch into group blocks and job blocks.

        Returns ``(groups, jobs)`` with shapes
        ``(K, batch, group_dim)`` and ``(batch, job_dim)``.
        """
        states = as_batch(states)
        if states.shape[1] != self.state_dim:
            raise ValueError(
                f"state width {states.shape[1]} != encoder state_dim {self.state_dim}"
            )
        server_part = states[:, : self.num_groups * self.group_dim]
        jobs = states[:, self.num_groups * self.group_dim :]
        groups = server_part.reshape(-1, self.num_groups, self.group_dim)
        return np.transpose(groups, (1, 0, 2)), jobs
