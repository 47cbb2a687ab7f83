"""End-to-end guarantees of the telemetry subsystem.

Three properties the whole design hangs on:

* **parity** — profiling a cell changes *nothing* about its result:
  the profiled dict minus its ``"telemetry"`` key is bit-for-bit equal
  to the unprofiled one (telemetry never touches simulation state or
  RNG streams);
* **overhead** — an *enabled* instrumented run stays within
  ``REPRO_OBS_MAX_OVERHEAD`` (default 10%) of the uninstrumented one
  on the federation hot path;
* **coverage** — a profiled federated run attributes >= 90% of its
  ``run`` span to named phases, including the federation broker
  (``fed.route``), and renders cleanly.
"""

from __future__ import annotations

import os

import pytest

from repro.core.baselines import AlwaysOnPolicy, LeastLoadedBroker
from repro.core.federation import make_federation_broker
from repro.obs import phase_coverage, render_report
from repro.obs import telemetry as obs
from repro.scenarios.orchestrator import run_cell
from repro.sim.federation import build_federation
from repro.sim.job import Job
from repro.sim.power import TariffModel
from repro.workload.mixtures import correlated_traces
from repro.workload.synthetic import SyntheticTraceConfig
from tests.helpers import interleaved

MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.10"))


@pytest.fixture(autouse=True)
def _no_leaked_global_state():
    assert obs.active() is None
    yield
    assert obs.active() is None, "a test left telemetry enabled"


class TestParity:
    def test_profiled_cell_is_bit_identical(self):
        plain = run_cell("paper-default", "round-robin", n_jobs=120, seed=0)
        profiled = run_cell(
            "paper-default", "round-robin", n_jobs=120, seed=0, profile=True
        )
        snapshot = profiled.pop("telemetry")
        assert snapshot is not None
        assert profiled == plain

    def test_profiled_federated_cell_is_bit_identical(self):
        plain = run_cell("follow-the-sun", "round-robin", n_jobs=90, seed=0)
        profiled = run_cell(
            "follow-the-sun", "round-robin", n_jobs=90, seed=0, profile=True
        )
        snapshot = profiled.pop("telemetry")
        assert snapshot is not None
        assert profiled == plain

    @pytest.mark.parametrize("scenario", ["failure-storm", "degraded-federation"])
    def test_profiled_faulted_cell_is_bit_identical_and_phased(self, scenario):
        plain = run_cell(scenario, "round-robin", n_jobs=120, seed=0)
        profiled = run_cell(scenario, "round-robin", n_jobs=120, seed=0, profile=True)
        snapshot = profiled.pop("telemetry")
        assert profiled == plain
        assert plain["retries"] > 0  # the faults really fired
        # A faulted run reports the same per-job phases as a clean one.
        spans, counters = snapshot["spans"], snapshot["counters"]
        for name in ("site.settle", "site.dispatch"):
            assert name in spans, f"missing span {name!r}"
        for name in ("jobs.arrived", "jobs.completed", "cluster.decisions"):
            assert counters.get(name, 0) > 0, f"missing counter {name!r}"
        # Retries are decisions, not new arrivals.
        assert counters["jobs.arrived"] == plain["n_jobs_offered"]
        assert counters["jobs.completed"] == plain["n_jobs_completed"]
        assert (
            counters["cluster.decisions"] == plain["n_jobs_offered"] + plain["retries"]
        )
        assert phase_coverage(snapshot) >= 0.9
        if scenario == "degraded-federation":
            assert "fed.route" in spans
            assert counters["fed.decisions"] > 0

    def test_unprofiled_cell_carries_no_telemetry(self):
        result = run_cell("paper-default", "round-robin", n_jobs=60, seed=0)
        assert "telemetry" not in result


class TestOverhead:
    """The issue's gate: enabled telemetry <10% on a small federated run.

    Measured on the federation hot path (three 10-server sites with
    least-loaded cluster brokers, shifted time-of-use tariffs, and a
    price-greedy federation broker — the follow-the-sun dispatch stack
    of the acceptance scenario). Each round of
    ``tests.helpers.interleaved`` runs one plain and one instrumented arm
    back-to-back (order alternating, GC paused) and yields one overhead
    ratio; the gate applies to the *smallest* ratio observed. Machine
    noise — scheduler preemption, frequency drift, co-tenants — only
    ever inflates a ratio, so the cleanest pair is the best estimate of
    the instrumentation's intrinsic cost, while a real regression (extra
    work on every event) inflates every pair and still trips the gate.
    """

    N_JOBS = 1500
    SITES = 3
    REPS = 8

    @pytest.fixture(scope="class")
    def per_site(self):
        horizon = self.N_JOBS * 14.0
        streams = correlated_traces(
            [
                (
                    SyntheticTraceConfig(n_jobs=self.N_JOBS, horizon=horizon),
                    self.N_JOBS // self.SITES,
                )
            ]
            * self.SITES,
            horizon=horizon,
            seed=7,
            coupling=1.0,
        )
        offset = 0
        for stream in streams:
            for job in stream:
                job.job_id += offset
            offset += len(stream)
        return streams

    def _build(self, per_site):
        tou = TariffModel.time_of_use(
            peak_start_hour=16.0,
            peak_end_hour=21.0,
            peak_price=0.32,
            offpeak_price=0.08,
        )
        engine = build_federation(
            [
                dict(
                    name=f"site{i}",
                    num_servers=10,
                    broker=LeastLoadedBroker(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                    tariff=tou.shifted(i * 8 * 3600.0),
                )
                for i in range(self.SITES)
            ],
            broker=make_federation_broker("price-greedy", self.SITES),
        )
        return engine, [[job.copy() for job in s] for s in per_site]

    def _arm(self, per_site, instrumented: bool):
        def setup():
            engine, streams = self._build(per_site)
            if not instrumented:
                return lambda: engine.run(streams)

            def run():
                with obs.capture():
                    engine.run(streams)

            return run

        return setup

    @pytest.mark.slow
    def test_enabled_overhead_within_budget(self, per_site):
        seconds = interleaved(
            {
                "plain": self._arm(per_site, instrumented=False),
                "instrumented": self._arm(per_site, instrumented=True),
            },
            self.REPS,
        ).seconds
        ratios = [i / p for i, p in zip(seconds["instrumented"], seconds["plain"])]
        overhead = min(ratios) - 1.0
        assert overhead <= MAX_OVERHEAD, (
            f"enabled telemetry costs {overhead:.1%} over the uninstrumented "
            f"run in the cleanest of {self.REPS} interleaved pairs (gate "
            f"{MAX_OVERHEAD:.0%}; {self.N_JOBS} jobs over {self.SITES} "
            "sites); rerun on a quiet machine or set REPRO_OBS_MAX_OVERHEAD"
        )


class TestJobCounters:
    def test_jobs_are_counted_from_the_collectors(self):
        engine = build_federation(
            [
                dict(
                    name=name,
                    num_servers=2,
                    broker=LeastLoadedBroker(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                )
                for name in ("a", "b")
            ]
        )
        streams = [
            [Job(site * 10 + i, 5.0 * i, 20.0, (0.3, 0.1, 0.1)) for i in range(n)]
            for site, n in enumerate((6, 4))
        ]
        with obs.capture() as tel:
            result = engine.run(streams)
        snapshot = tel.snapshot()
        counters, spans = snapshot["counters"], snapshot["spans"]
        assert [s.metrics.n_completed for s in result.sites] == [6, 4]
        assert counters["jobs.arrived"] == counters["jobs.completed"] == 10
        # One settle per arrival and one per completion, on every site.
        assert spans["site.settle"]["calls"] == 20
        assert spans["site.dispatch"]["calls"] == 10


class TestFederatedCoverage:
    @pytest.fixture(scope="class")
    def snapshot(self) -> dict:
        result = run_cell(
            "follow-the-sun", "round-robin", n_jobs=120, seed=0, profile=True
        )
        return result["telemetry"]

    def test_phase_coverage_meets_acceptance_bar(self, snapshot):
        assert phase_coverage(snapshot) >= 0.9

    def test_federation_phases_present(self, snapshot):
        spans = snapshot["spans"]
        for name in ("run", "loop.event", "fed.route", "site.settle",
                     "site.dispatch", "run.finalize"):
            assert name in spans, f"missing span {name!r}"
        assert snapshot["counters"]["fed.decisions"] > 0
        assert snapshot["counters"]["jobs.completed"] > 0

    def test_queue_gauges_cover_every_site(self, snapshot):
        gauges = snapshot["gauges"]
        assert "events.queue_depth" in gauges
        for site in ("apac", "emea", "amer"):
            assert f"queue.{site}" in gauges

    def test_report_renders(self, snapshot):
        text = render_report(snapshot, top=5)
        assert "telemetry:" in text
        assert "fed.route" in text or "loop.event" in text
