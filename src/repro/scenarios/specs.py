"""Declarative experiment scenarios: workload × fleet × churn.

A :class:`ScenarioSpec` is a complete, parameter-only description of one
experiment family — everything needed to build traces, an
:class:`~repro.core.config.ExperimentConfig`, and a churn schedule from
just ``(n_jobs, seed)``. Specs are frozen dataclasses of plain numbers
and strings, so they pickle across ``multiprocessing`` workers and
serialize to canonical JSON for content-keyed result caching
(:meth:`ScenarioSpec.content_key`).

Sizing follows the harness convention: the base synthetic intensity
(100 k jobs/week) targets the paper's 30-machine cluster, larger fleets
reuse it (Table I evaluates M = 30 and 40 on the same segments), and
smaller test fleets are fed proportionally lighter load.
"""

from __future__ import annotations

import glob as globlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import ExperimentConfig, GlobalTierConfig, groups_for
from repro.faults.spec import FaultSpec
from repro.scenarios.store import content_key
from repro.sim.churn import CapacityEvent
from repro.sim.job import Job
from repro.sim.power import PowerModel, TariffModel
from repro.workload.mixtures import (
    correlated_traces,
    generate_correlated_mixture,
    generate_mixture,
)
from repro.workload.segments import rebase
from repro.workload.synthetic import SyntheticTraceConfig, reference_rate
from repro.workload.trace import (
    read_google_machine_events,
    read_google_task_events,
    read_trace_csv,
)

#: Federation-tier dispatch policies a scenario may name. Kept as the
#: scenario-layer vocabulary so importing specs stays light; the
#: implementations (and the matching tuple) live in
#: :mod:`repro.core.federation`.
FEDERATION_POLICIES = (
    "home",
    "least-loaded",
    "price-greedy",
    "carbon-greedy",
    "drl",
)


@dataclass(frozen=True)
class JobClassSpec:
    """One tenant / job class inside a workload mix."""

    name: str
    weight: float
    trace: SyntheticTraceConfig = field(default_factory=SyntheticTraceConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job class name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A flash-crowd window, positioned as fractions of the trace span."""

    start_fraction: float
    duration_fraction: float
    rate_multiplier: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError(
                f"start_fraction must be in [0, 1), got {self.start_fraction}"
            )
        if not 0.0 < self.duration_fraction <= 1.0:
            raise ValueError(
                f"duration_fraction must be in (0, 1], got {self.duration_fraction}"
            )
        if self.rate_multiplier <= 1.0:
            raise ValueError(
                f"rate_multiplier must exceed 1, got {self.rate_multiplier}"
            )


def _resolve_trace_paths(paths: tuple[str, ...]) -> list[Path]:
    """Expand files/globs (matches sorted lexically, so shards stay ordered).

    Raises
    ------
    ValueError
        If a glob pattern matches nothing.
    FileNotFoundError
        If a literal path does not exist.
    """
    resolved: list[Path] = []
    for pattern in paths:
        matches = sorted(globlib.glob(pattern))
        if matches:
            resolved.extend(Path(m) for m in matches)
        elif globlib.has_magic(pattern):
            raise ValueError(f"trace glob {pattern!r} matched no files")
        elif Path(pattern).exists():
            resolved.append(Path(pattern))
        else:
            raise FileNotFoundError(f"trace file {pattern!r} does not exist")
    return resolved


def _trace_fingerprints(
    paths: tuple[str, ...],
) -> tuple[tuple[str, int | None, int | None], ...]:
    """``(path, size, mtime_ns)`` per resolved file — the data's identity.

    Folded into replay content keys (and the parse cache key) so editing
    or replacing a trace file invalidates exactly the results computed
    from the old contents, keeping the store's never-serve-stale
    invariant. Unresolvable patterns fingerprint as ``(pattern, None,
    None)`` — key construction must stay usable for specs whose files
    only exist on the machine that runs them.
    """
    fingerprints: list[tuple[str, int | None, int | None]] = []
    try:
        resolved = _resolve_trace_paths(paths)
    except (OSError, ValueError):
        return tuple((pattern, None, None) for pattern in paths)
    for path in resolved:
        try:
            stat = path.stat()
            fingerprints.append((str(path), stat.st_size, stat.st_mtime_ns))
        except OSError:  # pragma: no cover - raced deletion
            fingerprints.append((str(path), None, None))
    return tuple(fingerprints)


#: Parse cache: (paths, format, window) -> (file fingerprints, records).
#: Keyed *without* the fingerprint so an edited file replaces its stale
#: parse in place instead of pinning it; bounded so a long-lived process
#: replaying many distinct file sets cannot hoard dead multi-hundred-MB
#: parses.
_REPLAY_CACHE: dict[tuple, tuple[tuple, tuple]] = {}
_REPLAY_CACHE_MAX = 8


def _load_replay_records(
    paths: tuple[str, ...],
    fmt: str,
    min_duration: float,
    max_duration: float,
    fingerprints: tuple = (),
) -> tuple[tuple[float, float, tuple[float, ...]], ...]:
    """Parsed ``(arrival, duration, resources)`` rows, arrival-sorted,
    cached per (file set, window).

    Every worker process pays the parse once; the cache holds raw rows,
    not :class:`Job` objects, so callers always get fresh jobs with no
    shared runtime state. A hit is only served while ``fingerprints``
    (size/mtime per file) still matches — a file edited while the
    process lives is re-parsed, and its stale parse is dropped rather
    than retained.
    """
    cache_key = (paths, fmt, min_duration, max_duration)
    hit = _REPLAY_CACHE.get(cache_key)
    if hit is not None and hit[0] == fingerprints:
        return hit[1]
    resolved = _resolve_trace_paths(paths)
    if fmt == "google":
        jobs = read_google_task_events(
            resolved, min_duration=min_duration, max_duration=max_duration
        )
    else:
        jobs = [
            job
            for path in resolved
            for job in read_trace_csv(path)
            if min_duration <= job.duration <= max_duration
        ]
        jobs.sort(key=lambda job: job.arrival_time)
    records = tuple(
        (job.arrival_time, job.duration, job.resources) for job in jobs
    )
    if cache_key not in _REPLAY_CACHE:  # refreshes replace in place
        while len(_REPLAY_CACHE) >= _REPLAY_CACHE_MAX:
            _REPLAY_CACHE.pop(next(iter(_REPLAY_CACHE)))  # oldest insertion
    _REPLAY_CACHE[cache_key] = (fingerprints, records)
    return records


@dataclass(frozen=True)
class TraceReplaySpec:
    """Replay recorded trace files instead of generating synthetic load.

    Parameters
    ----------
    paths:
        Trace files or glob patterns (matches sorted lexically, so
        ``part-*.csv`` shards replay in order).
    format:
        ``"google"`` — headerless Google cluster-usage *task events*
        tables (SUBMIT/FINISH pairs, see
        :func:`~repro.workload.trace.read_google_task_events`) — or
        ``"canonical"`` — this library's
        ``job_id,arrival_time,duration,cpu,mem,disk`` CSV.
    min_duration, max_duration:
        Keep jobs whose duration falls in this window (the paper keeps
        1 min – 2 h).
    time_compression:
        Divide arrival times by this factor (> 1 packs a long recorded
        span into a shorter, proportionally hotter experiment; durations
        keep their physical length).
    split:
        Train/eval split policy. ``"head"``: training segments take the
        oldest jobs, evaluation the window right after — train on the
        past, evaluate on the future. ``"strided"``: jobs are dealt
        across evaluation and training streams at a stride sized so the
        evaluation picks thin the whole recording uniformly (training
        segments thin at the same rate, covering roughly the leading
        ``train_fraction`` of it).
    machine_events:
        Optional Google *machine events* files/globs. When set, the
        scenario additionally replays the recording's capacity churn:
        REMOVE/ADD pairs become
        :class:`~repro.sim.churn.CapacityEvent` drains (see
        :func:`~repro.workload.trace.read_google_machine_events`), with
        the same ``time_compression`` applied.
    """

    paths: tuple[str, ...]
    format: str = "google"
    min_duration: float = 60.0
    max_duration: float = 7_200.0
    time_compression: float = 1.0
    split: str = "head"
    machine_events: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.paths, (str, Path)):  # a lone path is a common slip
            object.__setattr__(self, "paths", (str(self.paths),))
        else:
            object.__setattr__(self, "paths", tuple(str(p) for p in self.paths))
        if isinstance(self.machine_events, (str, Path)):
            object.__setattr__(self, "machine_events", (str(self.machine_events),))
        else:
            object.__setattr__(
                self, "machine_events", tuple(str(p) for p in self.machine_events)
            )
        if not self.paths:
            raise ValueError("trace replay needs at least one path or glob")
        if self.format not in ("google", "canonical"):
            raise ValueError(
                f"format must be 'google' or 'canonical', got {self.format!r}"
            )
        if self.min_duration <= 0 or self.max_duration < self.min_duration:
            raise ValueError("need 0 < min_duration <= max_duration")
        if self.time_compression <= 0:
            raise ValueError(
                f"time_compression must be positive, got {self.time_compression}"
            )
        if self.split not in ("head", "strided"):
            raise ValueError(f"split must be 'head' or 'strided', got {self.split!r}")

    def file_fingerprints(self) -> tuple[tuple[str, int | None, int | None], ...]:
        """``(path, size, mtime_ns)`` of each resolved trace file.

        The replayed *data's* identity: content keys embed it (see
        :meth:`ScenarioSpec.content_dict`), so cached results can never
        outlive the file contents they were computed from.
        """
        return _trace_fingerprints(self.paths)

    def machine_event_fingerprints(
        self,
    ) -> tuple[tuple[str, int | None, int | None], ...]:
        """``(path, size, mtime_ns)`` of each resolved machine-events file."""
        return _trace_fingerprints(self.machine_events)

    def load_capacity_events(
        self, num_servers: int, horizon: float
    ) -> tuple[CapacityEvent, ...]:
        """The recording's churn schedule, compressed and horizon-clipped.

        Machine REMOVE/ADD cycles map onto the simulated fleet (machines
        assigned to server slots round-robin in first-seen order), times
        divide by ``time_compression`` like job arrivals, drains still
        open at the end of the recording close at ``horizon``, and
        events starting past ``horizon`` are dropped — they would only
        stretch the drain phase of a run whose jobs have all arrived.
        """
        if not self.machine_events:
            return ()
        events = read_google_machine_events(
            _resolve_trace_paths(self.machine_events),
            num_servers=num_servers,
            open_duration=horizon * self.time_compression,
        )
        clipped = []
        for event in events:
            time = event.time / self.time_compression
            if time >= horizon:
                continue
            clipped.append(
                CapacityEvent(
                    time=time,
                    server_id=event.server_id,
                    duration=event.duration / self.time_compression,
                    fraction=event.fraction,
                )
            )
        return tuple(clipped)

    def _records(self) -> tuple[tuple[float, float, tuple[float, ...]], ...]:
        """Cached parsed rows; raises if the files hold no usable jobs."""
        records = _load_replay_records(
            self.paths,
            self.format,
            self.min_duration,
            self.max_duration,
            fingerprints=self.file_fingerprints(),
        )
        if not records:
            raise ValueError(
                f"trace replay: no usable jobs in {', '.join(self.paths)} "
                f"(format={self.format!r}, duration window "
                f"[{self.min_duration}, {self.max_duration}] s)"
            )
        return records

    def load_jobs(self) -> list[Job]:
        """All usable jobs, arrival-sorted, re-based, compression applied.

        Raises
        ------
        ValueError
            If the files parse to zero usable jobs (wrong format, all
            durations outside the window, or a corrupt fixture).
        """
        records = self._records()
        jobs = [
            Job(
                job_id=i,
                arrival_time=arrival / self.time_compression,
                duration=duration,
                resources=res,
            )
            for i, (arrival, duration, res) in enumerate(records)
        ]
        return rebase(jobs)

    def _split_ranges(
        self, total: int, n_jobs: int, n_train_segments: int, train_fraction: float
    ) -> tuple[range, list[range]]:
        """Index ranges (over the arrival-sorted job list) per split policy.

        The single source of the split arithmetic, shared by
        :meth:`build` (which materializes jobs) and :meth:`eval_span`
        (which only needs two arrival times), so the two can never
        drift.
        """
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be positive, got {n_jobs}")
        eval_target = min(n_jobs, total)
        if n_train_segments < 1:
            return range(eval_target), []
        if self.split == "strided":
            # Stride so the evaluation picks thin the *whole* recording
            # (never finer than one slot per stream), instead of biting
            # off the head of a long trace.
            stride = max(n_train_segments + 1, total // eval_target)
            stream0 = range(0, total, stride)
            eval_n = min(n_jobs, len(stream0))
            per_segment = max(1, int(eval_n * train_fraction))
            segments = [
                range(j, total, stride)[:per_segment]
                for j in range(1, n_train_segments + 1)
            ]
            return stream0[:eval_n], segments
        # "head": train on the oldest jobs, evaluate right after.
        per_segment = max(1, int(eval_target * train_fraction))
        reserve = min(n_train_segments * per_segment, total // 2)
        eval_n = min(n_jobs, total - reserve)
        base, extra = divmod(reserve, n_train_segments)
        segments, lo = [], 0
        for i in range(n_train_segments):
            hi = lo + base + (1 if i < extra else 0)
            segments.append(range(lo, hi))
            lo = hi
        return range(reserve, reserve + eval_n), segments

    def build(
        self,
        n_jobs: int,
        n_train_segments: int,
        train_fraction: float,
        with_training: bool = True,
    ) -> tuple[list[Job], list[list[Job]]]:
        """Evaluation trace and training segments per the split policy.

        ``n_jobs`` is an upper bound: a recording shorter than the
        request replays in full (minus the training reservation) rather
        than failing, so the same scenario drives smoke fixtures and
        real multi-gigabyte traces. Training reserves at most half the
        usable jobs; empty segments are dropped. Every returned stream
        is re-based to t = 0 and renumbered. ``with_training=False``
        skips the segments, not their reservation.
        """
        jobs = self.load_jobs()
        eval_range, segment_ranges = self._split_ranges(
            len(jobs), n_jobs, n_train_segments, train_fraction
        )
        return (
            rebase([jobs[i] for i in eval_range]),
            [
                rebase([jobs[i] for i in segment])
                for segment in segment_ranges
                if segment and with_training
            ],
        )

    def eval_span(
        self, n_jobs: int, n_train_segments: int, train_fraction: float
    ) -> float:
        """Arrival span (seconds) of the evaluation trace ``build`` yields.

        Reads just two arrivals off the cached (already arrival-sorted)
        parse — no :class:`Job` construction or re-sort — so callers can
        ask for the horizon without paying a second full trace build.
        """
        records = self._records()
        eval_range, _ = self._split_ranges(
            len(records), n_jobs, n_train_segments, train_fraction
        )
        if not eval_range:
            return 0.0
        return (records[eval_range[-1]][0] - records[eval_range[0]][0]) / (
            self.time_compression
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for the evaluation trace and its training segments.

    Parameters
    ----------
    classes:
        Weighted job classes; one class reproduces the paper's
        single-stream setup, several build a multi-tenant mix.
    flash_crowds:
        Extra arrival bursts layered on top (drawn from the first
        class's per-job marginals).
    rate_scale:
        Load multiplier on the reference intensity (1.0 = the intensity
        the paper offers a 30-machine cluster).
    train_fraction:
        Training-segment length relative to ``n_jobs`` (min 200 jobs for
        synthetic workloads; replay is bounded by the recording).
    n_train_segments:
        Number of independent training segments.
    burst_coupling:
        When set (in [0, 1]), classes are generated *correlated*: one
        shared diurnal phase and, to this degree, one shared burst
        timeline (see
        :func:`~repro.workload.mixtures.generate_correlated_mixture`).
        None (the default) keeps classes fully independent.
    replay:
        Replay recorded trace files instead of synthesizing: the
        :class:`TraceReplaySpec` supplies the evaluation trace and
        training segments, and every generator knob above except
        ``train_fraction`` / ``n_train_segments`` is ignored (and must
        stay at its default — mixing replay with synthetic layers is
        rejected).
    """

    classes: tuple[JobClassSpec, ...] = (JobClassSpec("default", 1.0),)
    flash_crowds: tuple[FlashCrowdSpec, ...] = ()
    rate_scale: float = 1.0
    train_fraction: float = 0.5
    n_train_segments: int = 2
    burst_coupling: float | None = None
    replay: TraceReplaySpec | None = None

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one job class")
        if self.rate_scale <= 0:
            raise ValueError(f"rate_scale must be positive, got {self.rate_scale}")
        if self.n_train_segments < 0:
            raise ValueError("n_train_segments must be non-negative")
        if self.burst_coupling is not None:
            if not 0.0 <= self.burst_coupling <= 1.0:
                raise ValueError(
                    f"burst_coupling must be in [0, 1], got {self.burst_coupling}"
                )
            if self.flash_crowds:
                raise ValueError(
                    "burst_coupling and flash_crowds do not compose; model the "
                    "surge as a coupled bursty class instead"
                )
        if self.replay is not None:
            if self.flash_crowds:
                raise ValueError("trace replay cannot carry flash crowds")
            if self.burst_coupling is not None:
                raise ValueError("trace replay cannot carry burst coupling")
            if self.rate_scale != 1.0:
                raise ValueError(
                    "trace replay ignores rate_scale; use the replay spec's "
                    "time_compression to raise intensity"
                )
            if self.classes != WorkloadSpec.__dataclass_fields__["classes"].default:
                raise ValueError(
                    "trace replay cannot carry synthetic job classes; the "
                    "recording is the workload"
                )

    def horizon_for(self, n_jobs: int, num_servers: int) -> float:
        """Trace span implied by the workload recipe.

        Synthetic workloads derive it from the reference intensity and
        fleet size; replay reads the actual evaluation span off the
        recording (fractional churn windows then land on real times).
        """
        if self.replay is not None:
            return self.replay.eval_span(
                n_jobs, self.n_train_segments, self.train_fraction
            )
        return n_jobs / reference_rate(num_servers, self.rate_scale)

    def build(
        self,
        n_jobs: int,
        num_servers: int,
        seed: int | np.random.SeedSequence,
        with_training: bool = True,
    ) -> tuple[list[Job], list[list[Job]]]:
        """Generate the evaluation trace and training segments.

        Every synthetic trace gets an independently spawned
        :class:`~numpy.random.SeedSequence` child, so training segments
        never share a stream with the evaluation trace (or each other),
        even when built in parallel workers. Trace replay is
        deterministic: the seed does not perturb the recorded jobs (it
        still seeds controller construction elsewhere).
        ``with_training=False`` skips the training segments.
        """
        if self.replay is not None:
            return self.replay.build(
                n_jobs, self.n_train_segments, self.train_fraction, with_training
            )
        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        eval_ss, *train_ss = ss.spawn(1 + self.n_train_segments)
        if not with_training:
            train_ss = []
        class_configs = [(c.trace, c.weight) for c in self.classes]
        crowds = [
            (f.start_fraction, f.duration_fraction, f.rate_multiplier)
            for f in self.flash_crowds
        ]
        eval_jobs = self._generate(
            class_configs,
            n_jobs=n_jobs,
            horizon=self.horizon_for(n_jobs, num_servers),
            seed=eval_ss,
            flash_crowds=crowds,
        )
        train_jobs = max(int(n_jobs * self.train_fraction), 200)
        train_horizon = self.horizon_for(train_jobs, num_servers)
        train_traces = [
            self._generate(
                class_configs,
                n_jobs=train_jobs,
                horizon=train_horizon,
                seed=child,
                flash_crowds=crowds,
            )
            for child in train_ss
        ]
        return eval_jobs, train_traces

    def _generate(
        self,
        class_configs: list[tuple[SyntheticTraceConfig, float]],
        n_jobs: int,
        horizon: float,
        seed: np.random.SeedSequence,
        flash_crowds: list[tuple[float, float, float]],
    ) -> list[Job]:
        if self.burst_coupling is not None:
            return generate_correlated_mixture(
                class_configs,
                n_jobs=n_jobs,
                horizon=horizon,
                seed=seed,
                coupling=self.burst_coupling,
            )
        return generate_mixture(
            class_configs,
            n_jobs=n_jobs,
            horizon=horizon,
            seed=seed,
            flash_crowds=flash_crowds,
        )


@dataclass(frozen=True)
class ServerClassSpec:
    """A block of identical servers inside a fleet."""

    name: str
    count: int
    power: PowerModel = field(default_factory=PowerModel)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("server class name must be non-empty")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")


@dataclass(frozen=True)
class FleetSpec:
    """Cluster composition: one or more server classes plus grouping."""

    classes: tuple[ServerClassSpec, ...] = (ServerClassSpec("standard", 30),)
    num_groups: int | None = None

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one server class")
        if self.num_groups is not None and self.num_servers % self.num_groups != 0:
            raise ValueError(
                f"num_servers ({self.num_servers}) must be divisible by "
                f"num_groups ({self.num_groups})"
            )

    @property
    def num_servers(self) -> int:
        return sum(c.count for c in self.classes)

    @property
    def is_heterogeneous(self) -> bool:
        return len(self.classes) > 1

    def power_models(self) -> tuple[PowerModel, ...] | None:
        """Per-server models for mixed fleets, None when homogeneous."""
        if not self.is_heterogeneous:
            return None
        models: list[PowerModel] = []
        for cls in self.classes:
            models.extend([cls.power] * cls.count)
        return tuple(models)

    def groups(self) -> int:
        return (
            self.num_groups
            if self.num_groups is not None
            else groups_for(self.num_servers)
        )


@dataclass(frozen=True)
class SiteSpec:
    """One member site of a federated scenario.

    Sites may differ in fleet composition (and therefore power models),
    electricity tariff (market and time zone — see
    :meth:`~repro.sim.power.TariffModel.shifted`), and workload share.

    Parameters
    ----------
    name:
        Site label (cosmetic; excluded from content keys like all other
        labels).
    fleet:
        The site's cluster composition.
    tariff:
        The site's price/carbon signal; per-site cost and CO₂ accounts
        are integrated against it.
    weight:
        The site's share of the fleet-wide job stream (normalized over
        sites); the *home* stream — the federation tier may still move
        jobs elsewhere.
    faults:
        Site-local unplanned-failure model, overriding the scenario's
        ``faults`` for this site. Site-wide outage windows live on the
        scenario-level spec (which sees every site index), not here.
    """

    name: str
    fleet: FleetSpec = field(default_factory=FleetSpec)
    tariff: TariffModel | None = None
    weight: float = 1.0
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"site weight must be positive, got {self.weight}")
        if self.faults is not None and self.faults.site_outages:
            raise ValueError(
                f"site {self.name!r}: site_outages belong on the scenario's "
                "FaultSpec (which can see every site index), not a SiteSpec's"
            )


@dataclass(frozen=True)
class CapacityWindowSpec:
    """A churn window (maintenance drain / failure) on a set of servers.

    Times are fractions of the evaluation span so the same scenario
    scales from smoke tests to full-size runs.
    """

    start_fraction: float
    duration_fraction: float
    servers: tuple[int, ...]
    capacity_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_fraction < 1.0:
            raise ValueError(
                f"start_fraction must be in [0, 1), got {self.start_fraction}"
            )
        if not 0.0 < self.duration_fraction <= 1.0:
            raise ValueError(
                f"duration_fraction must be in (0, 1], got {self.duration_fraction}"
            )
        if not self.servers:
            raise ValueError("a capacity window must name at least one server")
        if not 0.0 <= self.capacity_fraction < 1.0:
            raise ValueError(
                f"capacity_fraction must be in [0, 1), got {self.capacity_fraction}"
            )

    def to_events(self, horizon: float) -> tuple[CapacityEvent, ...]:
        return tuple(
            CapacityEvent(
                time=self.start_fraction * horizon,
                server_id=server,
                duration=self.duration_fraction * horizon,
                fraction=self.capacity_fraction,
            )
            for server in self.servers
        )


def rolling_maintenance(
    num_servers: int,
    group_size: int,
    n_waves: int,
    first_start: float = 0.1,
    spacing: float = 0.15,
    duration_fraction: float = 0.08,
    capacity_fraction: float = 0.0,
) -> tuple[CapacityWindowSpec, ...]:
    """Staggered drain waves over consecutive server blocks.

    Wave ``i`` drains servers ``[i * group_size, (i + 1) * group_size)``
    (mod the fleet size) starting at ``first_start + i * spacing`` of
    the span — the classic rolling-maintenance pattern.
    """
    if group_size < 1 or n_waves < 1:
        raise ValueError("group_size and n_waves must be positive")
    windows = []
    for wave in range(n_waves):
        start = first_start + wave * spacing
        if start + duration_fraction > 1.0:
            raise ValueError(
                f"wave {wave} at start fraction {start} overruns the span; "
                "reduce n_waves, spacing, or duration_fraction"
            )
        servers = tuple(
            (wave * group_size + i) % num_servers for i in range(group_size)
        )
        windows.append(
            CapacityWindowSpec(
                start_fraction=start,
                duration_fraction=duration_fraction,
                servers=servers,
                capacity_fraction=capacity_fraction,
            )
        )
    return tuple(windows)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully parameterized experiment scenario.

    ``tariff`` attaches a time-varying electricity price / carbon
    intensity signal (:class:`~repro.sim.power.TariffModel`): evaluation
    results then carry cost ($) and CO₂ (kg) series alongside energy.
    The tariff never enters training — it is an accounting lens over the
    same joules, so it shapes result content keys but not training keys.

    ``sites`` turns the scenario *federated*: instead of one cluster,
    the simulation runs a fleet of sites (each with its own fleet,
    tariff, and home workload share) on one event clock, with the
    ``federation`` policy dispatching arrivals across sites before each
    site's own broker places them on servers. An empty ``sites`` tuple
    (the default) is one implicit site carrying the scenario's fleet and
    tariff (:attr:`site_specs`); a single-entry tuple is the same
    experiment (bit-identical metrics).
    """

    name: str
    description: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    capacity_windows: tuple[CapacityWindowSpec, ...] = ()
    overload_threshold: float = 0.9
    tariff: TariffModel | None = None
    sites: tuple[SiteSpec, ...] = ()
    federation: str = "home"
    #: Unplanned-failure model (crashes, job failures, stragglers, site
    #: outages); seeded per cell and content-keyed like everything else.
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.federation not in FEDERATION_POLICIES:
            raise ValueError(
                f"unknown federation policy {self.federation!r}; "
                f"known: {FEDERATION_POLICIES}"
            )
        if not self.sites and self.federation != "home":
            raise ValueError(
                f"scenario {self.name!r}: federation policy "
                f"{self.federation!r} needs a non-empty sites tuple"
            )
        if self.sites:
            if self.capacity_windows:
                raise ValueError(
                    f"scenario {self.name!r}: capacity windows are not "
                    "supported on federated scenarios yet"
                )
            if len(self.sites) > 1:
                if self.workload.replay is not None:
                    raise ValueError(
                        f"scenario {self.name!r}: trace replay supports a "
                        "single site; multi-site replay needs a per-site "
                        "recording split"
                    )
                if len(self.workload.classes) != 1 or self.workload.flash_crowds:
                    raise ValueError(
                        f"scenario {self.name!r}: multi-site workloads are "
                        "generated per site from one job class (coupled via "
                        "burst_coupling); use a single class without flash "
                        "crowds"
                    )
        for window in self.capacity_windows:
            bad = [s for s in window.servers if s >= self.fleet.num_servers]
            if bad:
                raise ValueError(
                    f"scenario {self.name!r}: capacity window targets servers "
                    f"{bad} outside the {self.fleet.num_servers}-server fleet"
                )
        if self.faults is not None and self.faults.site_outages:
            if not self.sites:
                raise ValueError(
                    f"scenario {self.name!r}: site_outages need a federated "
                    "scenario (non-empty sites tuple)"
                )
            bad_sites = [
                o.site for o in self.faults.site_outages if o.site >= len(self.sites)
            ]
            if bad_sites:
                raise ValueError(
                    f"scenario {self.name!r}: site outages target sites "
                    f"{bad_sites} outside the {len(self.sites)}-site federation"
                )

    @property
    def is_federated(self) -> bool:
        return bool(self.sites)

    @property
    def site_specs(self) -> tuple[SiteSpec, ...]:
        """The sites a cell simulates: ``sites``, or one implicit site.

        A plain scenario is a federation of one: its site carries the
        scenario's fleet and tariff under the name ``cluster``, the name
        the single-cluster engine has always given its site.
        """
        return self.sites or (SiteSpec("cluster", self.fleet, self.tariff),)

    @property
    def num_servers_total(self) -> int:
        """Servers fleet-wide: across all sites, or the single cluster."""
        return sum(site.fleet.num_servers for site in self.site_specs)

    def site_experiment_config(self, index: int, seed: int = 0) -> ExperimentConfig:
        """The simulation/controller configuration of one site of :attr:`site_specs`."""
        fleet = self.site_specs[index].fleet
        return ExperimentConfig(
            num_servers=fleet.num_servers,
            power_model=fleet.classes[0].power,
            power_models=fleet.power_models(),
            overload_threshold=self.overload_threshold,
            global_tier=GlobalTierConfig(num_groups=fleet.groups()),
            seed=seed,
        )

    def build_traces(
        self, n_jobs: int, seed: int | np.random.SeedSequence
    ) -> tuple[list[Job], list[list[Job]]]:
        """Evaluation trace plus training segments for this scenario.

        Raises
        ------
        ValueError
            On a multi-site scenario — its per-site streams come from
            :meth:`build_site_traces` instead.
        """
        if len(self.sites) > 1:
            raise ValueError(
                f"scenario {self.name!r} is federated; use build_site_traces"
            )
        return self.workload.build(n_jobs, self.num_servers_total, seed)

    def build_site_traces(
        self,
        n_jobs: int,
        seed: int | np.random.SeedSequence,
        with_training: bool = True,
    ) -> tuple[list[list[Job]], list[list[list[Job]]]]:
        """Per-site home streams plus per-site training segments.

        Returns ``(eval_streams, train_streams)`` with
        ``eval_streams[i]`` site *i*'s home evaluation stream and
        ``train_streams[k][i]`` site *i*'s slice of training segment
        *k*. Sites draw their shares of ``n_jobs`` from their weights
        over one shared horizon, generated *correlated* — one shared
        diurnal phase and, to ``workload.burst_coupling`` (default 0),
        one shared burst timeline — so cross-site load peaks coincide
        the way real fleets' do. A federation of one, explicit or
        implicit, delegates to the single-cluster
        :meth:`WorkloadSpec.build` and is therefore the identical
        experiment. ``with_training=False`` skips the training segments.
        """
        workload = self.workload
        if len(self.sites) <= 1:
            eval_jobs, segments = workload.build(
                n_jobs, self.num_servers_total, seed, with_training
            )
            return [eval_jobs], [[segment] for segment in segments]
        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        eval_ss, *train_ss = ss.spawn(1 + workload.n_train_segments)
        if not with_training:
            train_ss = []
        total_weight = sum(site.weight for site in self.sites)
        config = workload.classes[0].trace
        coupling = (
            workload.burst_coupling if workload.burst_coupling is not None else 0.0
        )

        def site_jobs(total: int) -> list[int]:
            return [
                max(1, round(total * site.weight / total_weight))
                for site in self.sites
            ]

        def renumber(streams: list[list[Job]]) -> list[list[Job]]:
            # Per-site traces each start numbering at 0; a federation
            # mixes them on shared clusters, so IDs must be unique
            # fleet-wide (they key per-server queue/running maps).
            offset = 0
            for stream in streams:
                for job in stream:
                    job.job_id += offset
                offset += len(stream)
            return streams

        horizon = workload.horizon_for(n_jobs, self.num_servers_total)
        eval_streams = renumber(
            correlated_traces(
                [(config, n) for n in site_jobs(n_jobs)],
                horizon=horizon,
                seed=eval_ss,
                coupling=coupling,
            )
        )
        train_total = max(int(n_jobs * workload.train_fraction), 200)
        train_horizon = workload.horizon_for(train_total, self.num_servers_total)
        train_streams = [
            renumber(
                correlated_traces(
                    [(config, n) for n in site_jobs(train_total)],
                    horizon=train_horizon,
                    seed=child,
                    coupling=coupling,
                )
            )
            for child in train_ss
        ]
        return eval_streams, train_streams

    def capacity_events(self, horizon: float) -> tuple[CapacityEvent, ...]:
        """Concrete churn schedule for a trace spanning ``horizon`` seconds.

        Fraction-of-span windows come first; a replay workload carrying
        Google machine-events files appends the recording's own
        REMOVE/ADD churn, mapped onto this scenario's fleet.
        """
        events: list[CapacityEvent] = []
        for window in self.capacity_windows:
            events.extend(window.to_events(horizon))
        replay = self.workload.replay
        if replay is not None and replay.machine_events:
            events.extend(
                replay.load_capacity_events(self.num_servers_total, horizon)
            )
        return tuple(events)

    def horizon_for(self, n_jobs: int) -> float:
        """Evaluation span (seconds) this scenario implies for ``n_jobs``."""
        return self.workload.horizon_for(n_jobs, self.num_servers_total)

    # ------------------------------------------------------------------
    # Content identity (for the result cache)
    # ------------------------------------------------------------------

    def content_dict(self) -> dict:
        """Plain-data view of every parameter that affects results.

        Labels are cosmetic — scenarios that differ only in naming
        simulate identically — so the scenario ``name``/``description``
        and the job/server class names are excluded, keeping cached
        results stable across renames. A null :class:`FaultSpec` (one
        whose :meth:`~repro.faults.spec.FaultSpec.is_null` is true)
        injects nothing, so it is normalized to ``None``: fault-free
        specs stay keyless however they were spelled, and adding
        ``faults=FaultSpec()`` never invalidates a fault-free cache. A
        replay workload additionally keys the trace *files* (path, size,
        mtime per resolved file): editing or replacing a trace file must
        invalidate the results computed from its old contents, not
        silently serve them.
        """
        payload = asdict(self)
        payload.pop("name")
        payload.pop("description")
        if self.faults is not None and self.faults.is_null():
            payload["faults"] = None
        for cls in payload["workload"]["classes"]:
            cls.pop("name")
        for cls in payload["fleet"]["classes"]:
            cls.pop("name")
        for spec, site in zip(self.sites, payload["sites"]):
            site.pop("name")
            if spec.faults is not None and spec.faults.is_null():
                site["faults"] = None
            for cls in site["fleet"]["classes"]:
                cls.pop("name")
        if self.workload.replay is not None:
            payload["workload"]["replay"]["files"] = [
                list(fp) for fp in self.workload.replay.file_fingerprints()
            ]
            if self.workload.replay.machine_events:
                payload["workload"]["replay"]["machine_files"] = [
                    list(fp)
                    for fp in self.workload.replay.machine_event_fingerprints()
                ]
        return payload

    def content_key(self) -> str:
        """Stable hex digest of the spec's behavioral parameters."""
        return content_key(self.content_dict())[:16]
