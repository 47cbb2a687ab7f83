"""Metrics collection for simulation runs.

Collects exactly what the paper's evaluation reports:

* per-job latency (Fig. 3 definition: completion minus arrival),
* accumulated job latency versus the number of jobs (Figs. 8a / 9a),
* accumulated energy versus the number of jobs (Figs. 8b / 9b),
* totals at a given job count — energy (kWh), latency (1e6 s), and
  average power (W) — for Table I.

Plus one extension beyond the paper: when a
:class:`~repro.sim.power.TariffModel` is attached, the collector also
integrates electricity **cost** ($) and grid **CO₂** (kg) over the same
timeline. The tariff integral is exact per accounting interval (the
interval between consecutive completions, over which cluster power is
treated as constant — the same resolution at which energy itself is
sampled into the series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sim.job import Job
from repro.sim.power import TariffModel

JOULES_PER_KWH = 3.6e6
GRAMS_PER_KG = 1e3


@dataclass(frozen=True)
class SeriesPoint:
    """One sample of the accumulated-metric curves.

    ``n_completed`` jobs have finished by simulated time ``time``;
    ``acc_latency`` is the sum of their latencies (seconds),
    ``energy_joules`` the cluster energy consumed so far, and
    ``cost_usd`` / ``co2_g`` the tariff-weighted cost and emissions
    accumulated so far (zero when the run carries no tariff).
    """

    n_completed: int
    time: float
    acc_latency: float
    energy_joules: float
    cost_usd: float = 0.0
    co2_g: float = 0.0

    @property
    def energy_kwh(self) -> float:
        return self.energy_joules / JOULES_PER_KWH

    @property
    def co2_kg(self) -> float:
        return self.co2_g / GRAMS_PER_KG

    @property
    def average_power_watts(self) -> float:
        """Mean cluster power from t=0 to this point."""
        if self.time <= 0.0:
            return 0.0
        return self.energy_joules / self.time


@dataclass
class MetricsCollector:
    """Accumulates job latencies and energy/latency series during a run.

    Parameters
    ----------
    record_every:
        Sample the series every this many job completions (1 records every
        completion; larger values bound memory on 100k-job runs).
    tariff:
        Optional electricity price / carbon-intensity signal. When set,
        every accounting interval's energy delta is weighted by the
        tariff's exact mean price and carbon over that interval, growing
        ``acc_cost_usd`` / ``acc_co2_g`` (and the per-point series).
    """

    record_every: int = 100
    tariff: TariffModel | None = None

    n_arrived: int = 0
    n_completed: int = 0
    n_failed: int = 0
    n_retries: int = 0
    acc_latency: float = 0.0
    acc_wait: float = 0.0
    max_latency: float = 0.0
    acc_cost_usd: float = 0.0
    acc_co2_g: float = 0.0
    series: list[SeriesPoint] = field(default_factory=list)
    final_time: float = 0.0

    _tariff_time: float = field(default=0.0, init=False, repr=False)
    _tariff_energy: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def _settle_tariff(self, now: float, cluster_energy: float) -> None:
        """Weight the interval's energy delta by the tariff's exact means."""
        if self.tariff is None:
            return
        delta = cluster_energy - self._tariff_energy
        if delta > 0.0:
            self.acc_cost_usd += self.tariff.energy_cost(
                delta, self._tariff_time, now
            )
            self.acc_co2_g += self.tariff.energy_co2(delta, self._tariff_time, now)
        self._tariff_time = now
        self._tariff_energy = cluster_energy

    def on_arrival(self, job: Job, now: float) -> None:
        self.n_arrived += 1

    def on_retry(self, job: Job, now: float) -> None:
        """A killed or failed job re-entered the queue (fault path)."""
        self.n_retries += 1

    def on_failure(self, job: Job, now: float) -> None:
        """A job exhausted its retry budget and was dropped (fault path).

        Only the counter moves — failures do not advance ``final_time``
        or the series, which track completions.
        """
        self.n_failed += 1

    def on_completion(
        self, job: Job, now: float, read_energy: Callable[[], float]
    ) -> None:
        """Record a completed job.

        ``read_energy()`` returns the site's total joules, synced to
        ``now`` (the engine passes ``cluster.total_energy``). It is
        called only when the total is used, to settle a tariff or to
        append a series point, and at most once: most completions of a
        run without a tariff read no energy at all.
        """
        self.n_completed += 1
        latency = job.latency
        self.acc_latency += latency
        self.acc_wait += job.wait_time
        self.max_latency = max(self.max_latency, latency)
        self.final_time = now
        cluster_energy = None
        if self.tariff is not None:
            cluster_energy = read_energy()
            self._settle_tariff(now, cluster_energy)
        if self.n_completed % self.record_every == 0 or self.n_completed == 1:
            if cluster_energy is None:
                cluster_energy = read_energy()
            self.series.append(
                SeriesPoint(
                    self.n_completed,
                    now,
                    self.acc_latency,
                    cluster_energy,
                    self.acc_cost_usd,
                    self.acc_co2_g,
                )
            )

    def close(self, now: float, cluster_energy: float) -> None:
        """Append a final series point if the last completion wasn't sampled.

        The point is stamped at ``now`` — the close time — not at
        ``final_time`` (the last completion): ``cluster_energy`` is the
        total synced at ``now``, and a point pairing close-time energy
        with completion-time timestamps would overstate average power
        whenever the run drains idle tail time past the last completion.
        """
        self._settle_tariff(now, cluster_energy)
        if not self.series or self.series[-1].n_completed != self.n_completed:
            self.series.append(
                SeriesPoint(
                    self.n_completed,
                    now,
                    self.acc_latency,
                    cluster_energy,
                    self.acc_cost_usd,
                    self.acc_co2_g,
                )
            )

    # ------------------------------------------------------------------
    # Totals and series (a run's summary is RunResult.from_run's)
    # ------------------------------------------------------------------

    def total_energy_kwh(self) -> float:
        """Cluster energy at the last recorded point, in kWh."""
        if not self.series:
            return 0.0
        return self.series[-1].energy_kwh

    def total_cost_usd(self) -> float:
        """Tariff-weighted electricity cost settled so far, in $."""
        return self.acc_cost_usd

    def total_co2_kg(self) -> float:
        """Tariff-weighted emissions settled so far, in kg."""
        return self.acc_co2_g / GRAMS_PER_KG

    def latency_series(self) -> list[tuple[int, float]]:
        """(n_completed, accumulated latency seconds) pairs — Fig. 8a/9a."""
        return [(p.n_completed, p.acc_latency) for p in self.series]

    def energy_series(self) -> list[tuple[int, float]]:
        """(n_completed, energy kWh) pairs — Fig. 8b/9b."""
        return [(p.n_completed, p.energy_kwh) for p in self.series]
