"""Reward functions of both tiers (Eqns. 4 and 5).

Both tiers define *reward rates*; over a sojourn ``[t_k, t_{k+1})`` the
SMDP update consumes the average rate, which we compute exactly from the
simulator's time integrals:

* global (Eqn. 4):
  ``r(t) = -w1 * TotalPower(t) - w2 * NumVMs(t) - w3 * ReliObj(t)``
* local (Eqn. 5):
  ``r(t) = -w * P(t) - (1 - w) * JQ(t)``

By Little's law the time-averaged number of VMs (jobs) in the system is
proportional to the average job latency, so minimizing these rewards
jointly minimizes power and latency.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GlobalRewardWeights:
    """Weights (w1, w2, w3) of Eqn. (4).

    No defaults: a broker takes its weights from its
    :class:`~repro.core.config.GlobalTierConfig`, the one place they
    are set.
    """

    w_power: float
    w_vms: float
    w_reliability: float

    def __post_init__(self) -> None:
        if self.w_power < 0 or self.w_vms < 0 or self.w_reliability < 0:
            raise ValueError("reward weights must be non-negative")


def global_reward_rate(
    weights: GlobalRewardWeights,
    energy_delta: float,
    vm_time_delta: float,
    overload_delta: float,
    tau: float,
) -> float:
    """Average Eqn.-(4) reward rate over a sojourn of length ``tau``.

    Parameters
    ----------
    energy_delta:
        Joules consumed by the whole cluster during the sojourn.
    vm_time_delta:
        VM-seconds accumulated (integral of the number of VMs in system).
    overload_delta:
        Integral of the hot-spot measure (reliability objective).
    tau:
        Sojourn length in seconds.

    Raises
    ------
    ValueError
        If ``tau`` is not positive.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    avg_power = energy_delta / tau
    avg_vms = vm_time_delta / tau
    avg_overload = overload_delta / tau
    return -(
        weights.w_power * avg_power
        + weights.w_vms * avg_vms
        + weights.w_reliability * avg_overload
    )


def local_reward_rate(
    w: float,
    energy_delta: float,
    queue_time_delta: float,
    tau: float,
    power_scale: float = 1.0,
) -> float:
    """Average Eqn.-(5) reward rate over a sojourn of length ``tau``.

    Parameters
    ----------
    w:
        Power-vs-latency weight in [0, 1].
    energy_delta:
        Joules consumed by this server during the sojourn.
    queue_time_delta:
        Job-seconds accumulated in this server's system (queued + running).
    tau:
        Sojourn length in seconds.
    power_scale:
        Watts counted as 1.0, so both reward terms are commensurate
        (a pure rescaling of the weight; the Pareto family is unchanged).

    Raises
    ------
    ValueError
        If ``tau`` is not positive, ``w`` outside [0, 1], or
        ``power_scale`` not positive.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w}")
    if power_scale <= 0:
        raise ValueError(f"power_scale must be positive, got {power_scale}")
    avg_power = energy_delta / tau / power_scale
    avg_queue = queue_time_delta / tau
    return -(w * avg_power + (1.0 - w) * avg_queue)
