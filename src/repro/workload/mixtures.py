"""Workload composition: multi-class mixes and flash-crowd injection.

The paper evaluates one Google-like job stream. Real clusters serve
*mixtures* — interactive front-end requests layered over long batch
work — and suffer flash crowds whose arrival rate bears no relation to
the diurnal baseline. These helpers compose such traces out of the
single-class generator in :mod:`repro.workload.synthetic`:

* :func:`merge_traces` — interleave independently generated job streams
  into one arrival-ordered trace (multi-tenant mixes).
* :func:`flash_crowd_jobs` — homogeneous-Poisson extra arrivals confined
  to a window, with durations/resources drawn from a trace config's
  marginal distributions (the "crowd" has the same per-job shape, just a
  brutal rate).
* :func:`generate_mixture` — weighted multi-class generation over a
  shared horizon, with optional flash crowds, as one call.
* :func:`correlated_traces` / :func:`generate_correlated_mixture` —
  *correlated* workloads: several clusters (or tenants) sharing one
  diurnal phase and, to a tunable degree, one burst timeline, so load
  peaks coincide instead of averaging out. Real fleets behave this way —
  the same users hit every region's front-ends at 8 pm — and coincident
  peaks are exactly what independent streams understate.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.sim.job import Job
from repro.workload.synthetic import (
    _DAY_SECONDS,
    SyntheticTraceConfig,
    _jobs_from_columns,
    _sample_durations,
    _sample_resources,
    generate_trace,
)


def merge_traces(*traces: Sequence[Job]) -> list[Job]:
    """Merge job streams into one trace sorted by arrival and renumbered.

    Jobs are copied (fresh :class:`Job` instances) so the inputs remain
    reusable; ties are broken by input order, keeping merges
    deterministic.
    """
    ordered = sorted(
        (job for trace in traces for job in trace),
        key=lambda j: j.arrival_time,
    )
    return [
        Job(
            job_id=i,
            arrival_time=job.arrival_time,
            duration=job.duration,
            resources=job.resources,
        )
        for i, job in enumerate(ordered)
    ]


def flash_crowd_jobs(
    config: SyntheticTraceConfig,
    start: float,
    duration: float,
    rate_multiplier: float,
    rng: np.random.Generator,
) -> list[Job]:
    """Extra arrivals modeling a flash crowd in ``[start, start + duration)``.

    The crowd adds a homogeneous Poisson stream at
    ``(rate_multiplier - 1) * config.base_rate`` on top of whatever the
    base trace already emits, so the *total* rate inside the window is
    roughly ``rate_multiplier`` times the mean. Durations and resources
    follow the config's marginals. Job IDs start at 0; renumber via
    :func:`merge_traces`.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if rate_multiplier <= 1.0:
        raise ValueError(
            f"rate_multiplier must exceed 1 (got {rate_multiplier}); "
            "1 means no extra load"
        )
    extra_rate = (rate_multiplier - 1.0) * config.base_rate
    n_extra = int(rng.poisson(extra_rate * duration))
    if n_extra == 0:
        return []
    arrivals = np.sort(rng.uniform(start, start + duration, size=n_extra))
    durations = _sample_durations(config, rng, n_extra)
    resources = _sample_resources(config, rng, n_extra)
    return _jobs_from_columns(arrivals, durations, resources)


def generate_mixture(
    class_configs: Sequence[tuple[SyntheticTraceConfig, float]],
    n_jobs: int,
    horizon: float,
    seed: int | np.random.SeedSequence = 0,
    flash_crowds: Sequence[tuple[float, float, float]] = (),
) -> list[Job]:
    """Generate a weighted multi-class trace over one shared horizon.

    Parameters
    ----------
    class_configs:
        ``(config, weight)`` pairs; each class contributes
        ``weight / sum(weights)`` of ``n_jobs``, generated with its own
        arrival/duration/resource character (the config's ``n_jobs`` and
        ``horizon`` are overridden).
    n_jobs:
        Total jobs across all classes (before flash-crowd extras).
    horizon:
        Shared trace span in seconds.
    seed:
        Seed or :class:`numpy.random.SeedSequence`; every class and
        every crowd gets an independently spawned child stream, so
        adding a class never perturbs the others.
    flash_crowds:
        ``(start_fraction, duration_fraction, rate_multiplier)`` triples
        relative to ``horizon``; extras are drawn from the first class's
        config (the dominant tenant).
    """
    if not class_configs:
        raise ValueError("need at least one job class")
    total_weight = sum(w for _, w in class_configs)
    if total_weight <= 0:
        raise ValueError("class weights must sum to a positive value")
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = ss.spawn(len(class_configs) + len(flash_crowds))

    traces: list[list[Job]] = []
    for (config, weight), child in zip(class_configs, children):
        class_jobs = max(1, round(n_jobs * weight / total_weight))
        class_config = replace(config, n_jobs=class_jobs, horizon=horizon)
        traces.append(generate_trace(class_config, seed=np.random.default_rng(child)))

    crowd_children = children[len(class_configs) :]
    base_config = replace(class_configs[0][0], n_jobs=n_jobs, horizon=horizon)
    for (start_frac, dur_frac, mult), child in zip(flash_crowds, crowd_children):
        if not 0.0 <= start_frac < 1.0 or not 0.0 < dur_frac <= 1.0:
            raise ValueError(
                "flash crowd window fractions must satisfy 0 <= start < 1 "
                f"and 0 < duration <= 1, got ({start_frac}, {dur_frac})"
            )
        traces.append(
            flash_crowd_jobs(
                base_config,
                start=start_frac * horizon,
                duration=dur_frac * horizon,
                rate_multiplier=mult,
                rng=np.random.default_rng(child),
            )
        )
    return merge_traces(*traces)


# ----------------------------------------------------------------------
# Correlated multi-cluster / multi-tenant workloads
# ----------------------------------------------------------------------


def sample_burst_windows(
    config: SyntheticTraceConfig,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[tuple[float, float], ...]:
    """Burst-on windows of the two-state Markov chain over ``[0, 2·horizon]``.

    The chain starts calm (matching the single-stream generator) and the
    timeline extends past ``horizon`` because thinning keeps sampling
    until the requested job count is reached; beyond twice the horizon
    the chain is treated as permanently calm.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    limit = 2.0 * horizon
    windows: list[tuple[float, float]] = []
    t = rng.exponential(config.burst_off_mean)
    while t < limit:
        start = t
        t += rng.exponential(config.burst_on_mean)
        windows.append((start, min(t, limit)))
        t += rng.exponential(config.burst_off_mean)
    return tuple(windows)


def _burst_on(
    windows: tuple[tuple[float, float], ...], index: int, t: float
) -> tuple[int, bool]:
    """Whether ``t`` falls in a window, advancing a monotone cursor."""
    while index < len(windows) and windows[index][1] <= t:
        index += 1
    return index, index < len(windows) and windows[index][0] <= t


def _sample_coupled_arrivals(
    config: SyntheticTraceConfig,
    rng: np.random.Generator,
    phase: float,
    shared_windows: tuple[tuple[float, float], ...],
    shared_duty: float,
    own_windows: tuple[tuple[float, float], ...],
    coupling: float,
) -> np.ndarray:
    """Thinning sampler whose burst modulation mixes a shared timeline.

    The instantaneous burst multiplier interpolates between this
    stream's own chain and the shared one: ``coupling = 0`` reproduces
    independent streams, ``coupling = 1`` makes every stream surge in
    exactly the shared windows. The diurnal phase is always the shared
    one. Long-run mean rate stays ``config.base_rate``: the duty-cycle
    correction mixes the shared chain's duty (``shared_duty``) and this
    stream's own, with the same weights as the modulation itself.
    """
    base = config.base_rate
    amp = config.diurnal_amplitude
    mult = config.burst_rate_multiplier
    own_duty = config.burst_on_mean / (config.burst_on_mean + config.burst_off_mean)
    duty = coupling * shared_duty + (1.0 - coupling) * own_duty
    mean_mult = 1.0 + duty * (mult - 1.0)
    lam_max = base * (1.0 + amp) * mult / mean_mult
    mean_gap = 1.0 / lam_max

    arrivals = np.empty(config.n_jobs)
    count = 0
    t = 0.0
    si = oi = 0
    while count < config.n_jobs:
        t += rng.exponential(mean_gap)
        si, shared_on = _burst_on(shared_windows, si, t)
        oi, own_on = _burst_on(own_windows, oi, t)
        on_level = coupling * shared_on + (1.0 - coupling) * own_on
        burst = 1.0 + (mult - 1.0) * on_level
        diurnal = 1.0 + amp * math.sin(2.0 * math.pi * t / _DAY_SECONDS + phase)
        rate = base * diurnal * burst / mean_mult
        if rng.random() * lam_max <= rate:  # the coin of _sample_arrivals
            arrivals[count] = t
            count += 1
    return arrivals


def correlated_traces(
    cluster_configs: Sequence[tuple[SyntheticTraceConfig, int]],
    horizon: float,
    seed: int | np.random.SeedSequence = 0,
    coupling: float = 1.0,
) -> list[list[Job]]:
    """One trace per cluster, coupled through shared load modulation.

    Parameters
    ----------
    cluster_configs:
        ``(config, n_jobs)`` per cluster; each trace gets that many jobs
        over the shared ``horizon`` with the config's duration/resource
        marginals.
    coupling:
        Burst-coupling weight in [0, 1]: 0 = independent burst chains
        (only the diurnal phase is shared), 1 = every cluster bursts in
        the same shared windows.

    The shared diurnal phase and shared burst timeline are drawn from
    their own spawned stream (using the first cluster's sojourn
    parameters), so adding a cluster never perturbs the others'
    workloads — and per-cluster durations/resources stay independent.
    """
    if not cluster_configs:
        raise ValueError("need at least one cluster")
    if not 0.0 <= coupling <= 1.0:
        raise ValueError(f"coupling must be in [0, 1], got {coupling}")
    if any(n < 1 for _, n in cluster_configs):
        raise ValueError("every cluster needs at least one job")
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    shared_child, *children = ss.spawn(1 + len(cluster_configs))
    shared_rng = np.random.default_rng(shared_child)
    phase = shared_rng.uniform(0.0, 2.0 * math.pi)
    shared_config = cluster_configs[0][0]
    shared_windows = sample_burst_windows(shared_config, horizon, shared_rng)
    shared_duty = shared_config.burst_on_mean / (
        shared_config.burst_on_mean + shared_config.burst_off_mean
    )

    traces: list[list[Job]] = []
    for (config, n_jobs), child in zip(cluster_configs, children):
        cfg = replace(config, n_jobs=n_jobs, horizon=horizon)
        rng = np.random.default_rng(child)
        own_windows = sample_burst_windows(cfg, horizon, rng)
        arrivals = _sample_coupled_arrivals(
            cfg, rng, phase, shared_windows, shared_duty, own_windows, coupling
        )
        durations = _sample_durations(cfg, rng, n_jobs)
        resources = _sample_resources(cfg, rng, n_jobs)
        traces.append(_jobs_from_columns(arrivals, durations, resources))
    return traces


def generate_correlated_mixture(
    class_configs: Sequence[tuple[SyntheticTraceConfig, float]],
    n_jobs: int,
    horizon: float,
    seed: int | np.random.SeedSequence = 0,
    coupling: float = 1.0,
) -> list[Job]:
    """Weighted multi-class trace whose classes surge *together*.

    The correlated sibling of :func:`generate_mixture`: same weighted
    class sizing, but every class shares one diurnal phase and (to
    degree ``coupling``) one burst timeline, then the streams merge into
    a single arrival-ordered trace. Feeding one cluster a fully coupled
    mixture reproduces the worst case of a correlated fleet — every
    tenant's peak lands on the same minutes.
    """
    if not class_configs:
        raise ValueError("need at least one job class")
    total_weight = sum(w for _, w in class_configs)
    if total_weight <= 0:
        raise ValueError("class weights must sum to a positive value")
    sized = [
        (config, max(1, round(n_jobs * weight / total_weight)))
        for config, weight in class_configs
    ]
    return merge_traces(
        *correlated_traces(sized, horizon, seed=seed, coupling=coupling)
    )
