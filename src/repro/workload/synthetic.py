"""Synthetic Google-like workload generator.

The paper's evaluation consumes, per job, exactly
``(arrival time, duration, cpu, mem, disk)``; this module generates job
streams with the same statistical character as the extracted Google 2011
segments:

* **Non-stationary arrivals** — a non-homogeneous Poisson process with a
  diurnal (sinusoidal) rate modulation plus a two-state Markov-modulated
  burst component, sampled by thinning. Sec. V-B of the paper stresses
  that real cloud workloads are time-variant and non-stationary; this
  keeps the DRL agent in that regime.
* **Durations** — log-normal, truncated to [1 min, 2 h] exactly as the
  paper clips the extracted jobs.
* **Resource demands** — Beta-distributed CPU / memory / disk fractions
  of one server, positively correlated (big jobs tend to be big in every
  dimension), matching the character of normalized Google requests.

The default parameters yield ~100 000 jobs per simulated week with an
offered CPU load appropriate for a 30–40 machine cluster, mirroring the
paper's segment construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.job import Job

_DAY_SECONDS = 86_400.0
_WEEK_SECONDS = 7 * _DAY_SECONDS

#: Cluster size the default intensity targets (the paper's M = 30; the
#: same trace also drives M = 40, as in Table I).
REFERENCE_SERVERS = 30


def reference_rate(num_servers: int, rate_scale: float = 1.0) -> float:
    """Offered arrival rate (jobs/s) appropriate for a fleet size.

    The default config's intensity targets :data:`REFERENCE_SERVERS`
    machines; larger clusters reuse it (the paper evaluates M = 30 and
    40 on the same segments) while smaller test clusters get a
    proportionally lighter rate so they are not pathologically
    overloaded. ``rate_scale`` multiplies the result (load knob).
    """
    scale = min(num_servers, REFERENCE_SERVERS) / REFERENCE_SERVERS
    return SyntheticTraceConfig().base_rate * scale * rate_scale


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of the synthetic Google-like trace.

    Parameters
    ----------
    n_jobs:
        Number of jobs to emit (paper segments: ~100 000).
    horizon:
        Target span of the trace in seconds (paper: one week).
    diurnal_amplitude:
        Relative amplitude of the day/night rate swing, in [0, 1).
    burst_rate_multiplier:
        Arrival-rate multiplier while the burst state is on.
    burst_on_mean, burst_off_mean:
        Mean sojourn times (seconds) of the bursty / calm states.
    duration_median, duration_sigma:
        Log-normal duration parameters (median seconds, log-space sigma).
    min_duration, max_duration:
        Truncation bounds (paper: 60 s and 7200 s).
    cpu_alpha, cpu_beta, cpu_scale:
        CPU demand ~ ``Beta(alpha, beta) * scale`` (plus a small floor).
    mem_scale, disk_scale:
        Memory/disk demand scales relative to the shared Beta draw.
    resource_floor:
        Minimum demand per dimension (avoids zero-size jobs).
    correlation:
        Weight in [0, 1] mixing a shared "job size" factor into each
        resource dimension (0 = independent, 1 = fully correlated).
    """

    n_jobs: int = 100_000
    horizon: float = _WEEK_SECONDS
    diurnal_amplitude: float = 0.4
    burst_rate_multiplier: float = 3.0
    burst_on_mean: float = 600.0
    burst_off_mean: float = 7_200.0
    duration_median: float = 300.0
    duration_sigma: float = 1.0
    min_duration: float = 60.0
    max_duration: float = 7_200.0
    cpu_alpha: float = 2.0
    cpu_beta: float = 7.0
    cpu_scale: float = 0.5
    mem_scale: float = 0.4
    disk_scale: float = 0.3
    resource_floor: float = 0.01
    correlation: float = 0.5

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be positive, got {self.n_jobs}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.burst_rate_multiplier < 1.0:
            raise ValueError("burst_rate_multiplier must be >= 1")
        if self.min_duration <= 0 or self.max_duration < self.min_duration:
            raise ValueError("need 0 < min_duration <= max_duration")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        if not 0.0 < self.resource_floor < 1.0:
            raise ValueError("resource_floor must be in (0, 1)")

    @property
    def base_rate(self) -> float:
        """Mean arrival rate (jobs/second) implied by n_jobs and horizon."""
        return self.n_jobs / self.horizon


def _sample_arrivals(
    config: SyntheticTraceConfig, rng: np.random.Generator
) -> np.ndarray:
    """Thinning sampler for the non-homogeneous, burst-modulated process."""
    base = config.base_rate
    amp = config.diurnal_amplitude
    burst_mult = config.burst_rate_multiplier
    # Duty-cycle correction so the long-run mean rate stays `base`.
    duty = config.burst_on_mean / (config.burst_on_mean + config.burst_off_mean)
    mean_mult = 1.0 + duty * (burst_mult - 1.0)
    lam_max = base * (1.0 + amp) * burst_mult / mean_mult
    mean_gap = 1.0 / lam_max

    arrivals = np.empty(config.n_jobs)
    count = 0
    t = 0.0
    burst_on = False
    burst_switch = rng.exponential(config.burst_off_mean)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    while count < config.n_jobs:
        t += rng.exponential(mean_gap)
        while t >= burst_switch:
            burst_on = not burst_on
            mean = config.burst_on_mean if burst_on else config.burst_off_mean
            burst_switch += rng.exponential(mean)
        diurnal = 1.0 + amp * math.sin(2.0 * math.pi * t / _DAY_SECONDS + phase)
        rate = base * diurnal * (burst_mult if burst_on else 1.0) / mean_mult
        # The thinning coin: ``random()`` is the double ``uniform()``
        # returns from the same draw, without its argument handling.
        if rng.random() * lam_max <= rate:
            arrivals[count] = t
            count += 1
    return arrivals


def _sample_durations(
    config: SyntheticTraceConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Truncated log-normal durations in [min_duration, max_duration]."""
    mu = math.log(config.duration_median)
    out = np.empty(n)
    remaining = np.arange(n)
    while remaining.size:
        draws = rng.lognormal(mu, config.duration_sigma, size=remaining.size)
        ok = (draws >= config.min_duration) & (draws <= config.max_duration)
        out[remaining[ok]] = draws[ok]
        remaining = remaining[~ok]
    return out


def _sample_resources(
    config: SyntheticTraceConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Correlated (cpu, mem, disk) demand rows in (0, 1]."""
    shared = rng.beta(config.cpu_alpha, config.cpu_beta, size=n)
    rows = np.empty((n, 3))
    for col, scale in enumerate(
        (config.cpu_scale, config.mem_scale, config.disk_scale)
    ):
        own = rng.beta(config.cpu_alpha, config.cpu_beta, size=n)
        mixed = config.correlation * shared + (1.0 - config.correlation) * own
        rows[:, col] = np.clip(
            config.resource_floor + mixed * scale, config.resource_floor, 1.0
        )
    return rows


def _jobs_from_columns(
    arrivals: np.ndarray,
    durations: np.ndarray,
    resources: np.ndarray,
    start_id: int = 0,
) -> list[Job]:
    """One validated :class:`Job` per row of the sampled columns.

    The columns are read once as Python floats (``tolist``), which are
    the values a per-element ``float(arr[i])`` would give.
    """
    return [
        Job(start_id + i, arrival, duration, tuple(demand))
        for i, (arrival, duration, demand) in enumerate(
            zip(arrivals.tolist(), durations.tolist(), resources.tolist())
        )
    ]


def generate_trace(
    config: SyntheticTraceConfig | None = None,
    seed: int | np.random.Generator = 0,
    start_id: int = 0,
) -> list[Job]:
    """Generate a synthetic Google-like job trace.

    Parameters
    ----------
    config:
        Trace parameters; defaults to a one-week, 100 k-job segment.
    seed:
        Seed or generator for full reproducibility.
    start_id:
        First job ID (useful when concatenating traces).
    """
    if config is None:
        config = SyntheticTraceConfig()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    arrivals = _sample_arrivals(config, rng)
    durations = _sample_durations(config, rng, config.n_jobs)
    resources = _sample_resources(config, rng, config.n_jobs)
    return _jobs_from_columns(arrivals, durations, resources, start_id)
