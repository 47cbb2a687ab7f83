"""Engine-side fault runtime: identity, crashes, retries, containment."""

import pytest

from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.faults.inject import install_faults
from repro.faults.plan import CrashEvent, SiteFaultPlan
from repro.faults.spec import FaultSpec
from repro.harness.runner import RunResult
from repro.sim.federation import build_federation
from repro.sim.interfaces import Broker, FederationBroker
from repro.sim.job import Job


def jobs_burst(n, spacing=10.0, duration=50.0, cpu=0.3, offset=0.0, start_id=0):
    return [
        Job(start_id + i, offset + i * spacing, duration, (cpu, 0.1, 0.1))
        for i in range(n)
    ]


def one_site(num_servers=2, broker=None):
    return build_federation(
        [
            dict(
                name="a",
                num_servers=num_servers,
                broker=broker or RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
            )
        ]
    )


def plan(spec=None, crashes=(), seed=0):
    return SiteFaultPlan(spec=spec or FaultSpec(), seed=seed, crashes=crashes)


def site_stats(result):
    m = result.sites[0].metrics
    return dict(
        completed=m.n_completed,
        failed=m.n_failed,
        retries=m.n_retries,
        acc_latency=m.acc_latency,
        energy=m.total_energy_kwh(),
    )


class FaultyBroker(Broker):
    """Raises on every decision — the degraded path must contain it."""

    def select_server(self, job, cluster, now):
        raise RuntimeError("diverged learner")


class PickServer(Broker):
    """Always picks one fixed server index."""

    def __init__(self, target):
        self.target = target

    def select_server(self, job, cluster, now):
        return self.target


class FaultySiteBroker(FederationBroker):
    """Raises on every site decision."""

    def select_site(self, job, sites, home, now):
        raise RuntimeError("diverged learner")


class PickSite(FederationBroker):
    """Always picks one fixed site index."""

    def __init__(self, target):
        self.target = target

    def select_site(self, job, sites, home, now):
        return self.target


class FinishRaisesBroker(RoundRobinBroker):
    """Places jobs fine; its completion hook raises."""

    def on_job_finish(self, job, cluster, now):
        raise RuntimeError("diverged learner")


class FinishRaisesSiteBroker(PickSite):
    """Routes every job home; its completion hook raises."""

    def __init__(self):
        super().__init__(0)

    def on_job_finish(self, job, sites, site_index, now):
        raise RuntimeError("diverged learner")


def two_sites(broker):
    return build_federation(
        [
            dict(
                name=name,
                num_servers=2,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
            )
            for name in ("a", "b")
        ],
        broker=broker,
    )


def tier_engine(tier, server_broker=None, site_broker=None):
    """A run where ``tier``'s broker is the one under test."""
    if tier == "server":
        return one_site(broker=server_broker), [jobs_burst(6)]
    return two_sites(site_broker), [jobs_burst(6), []]


def assert_broker_error_rule(engine, streams, runtime, error, match):
    """No runtime: the run raises. Inert runtime: one fallback per bad call."""
    if runtime == "none":
        with pytest.raises(error, match=match):
            engine.run(streams)
        return
    faults = install_faults(engine, [plan(FaultSpec())] * len(engine.sites))
    result = engine.run(streams)
    assert RunResult.from_run("rule", result, faults).n_jobs == 6
    assert faults.broker_fallbacks == 6  # every one of the 6 calls was bad


class TestBrokerErrorRule:
    """A raise and an out-of-range pick are both broker errors, on every tier.

    Without a fault runtime the run raises; with one, each error takes
    the least-loaded fallback and counts in ``broker_fallbacks``.
    """

    @pytest.mark.parametrize("runtime", ["none", "inert"])
    @pytest.mark.parametrize("error", ["raises", "out-of-range"])
    @pytest.mark.parametrize("tier", ["site", "server"])
    def test_bad_decision(self, tier, error, runtime):
        raises = error == "raises"
        engine, streams = tier_engine(
            tier,
            server_broker=FaultyBroker() if raises else PickServer(99),
            site_broker=FaultySiteBroker() if raises else PickSite(7),
        )
        expected = (RuntimeError, "diverged") if raises else (ValueError, "outside")
        assert_broker_error_rule(engine, streams, runtime, *expected)

    @pytest.mark.parametrize("runtime", ["none", "inert"])
    @pytest.mark.parametrize("tier", ["site", "server"])
    def test_finish_hook_raises(self, tier, runtime):
        engine, streams = tier_engine(
            tier,
            server_broker=FinishRaisesBroker(),
            site_broker=FinishRaisesSiteBroker(),
        )
        assert_broker_error_rule(engine, streams, runtime, RuntimeError, "diverged")


class TestZeroFaultIdentity:
    def test_inert_runtime_is_bit_identical(self):
        """The tentpole invariant: null plans change nothing at all."""
        stream = jobs_burst(40, spacing=7.0, duration=120.0, cpu=0.45)
        bare = one_site()
        bare_result = bare.run([list(stream)])

        faulted = one_site()
        runtime = install_faults(faulted, [plan()])
        faulted_result = faulted.run([jobs_burst(40, 7.0, 120.0, 0.45)])

        assert site_stats(faulted_result) == site_stats(bare_result)
        assert faulted_result.final_time == bare_result.final_time
        assert runtime.broker_fallbacks == 0
        assert runtime.fleet_availability(faulted_result.final_time) == 1.0

    def test_none_plan_is_inert_too(self):
        stream = jobs_burst(20)
        bare_result = one_site().run([list(stream)])
        faulted = one_site()
        install_faults(faulted, [None])
        assert site_stats(faulted.run([jobs_burst(20)])) == site_stats(
            bare_result
        )


class TestCrashes:
    def test_crash_kills_running_job_and_it_retries(self):
        engine = one_site(num_servers=1)
        runtime = install_faults(
            engine,
            [
                plan(
                    FaultSpec(max_retries=3, retry_backoff_s=10.0),
                    crashes=(CrashEvent(time=25.0, server_id=0, recovery=30.0),),
                )
            ],
        )
        result = engine.run([[Job(0, 0.0, 50.0, (0.3, 0.1, 0.1))]])
        m = result.sites[0].metrics
        assert runtime.total_crashes == 1
        assert runtime.total_jobs_killed == 1
        assert m.n_retries == 1
        assert m.n_completed == 1  # killed at 25, retried, finished later
        assert m.n_failed == 0
        # Down 30 s of a > 85 s run on one server.
        assert runtime.fleet_availability(result.final_time) < 1.0

    def test_crash_drains_queued_jobs_through_retry_path(self):
        # One server, two jobs: the second queues behind the first and
        # the crash at t=25 must re-enqueue both (1 running + 1 queued).
        engine = one_site(num_servers=1)
        runtime = install_faults(
            engine,
            [
                plan(
                    FaultSpec(max_retries=3, retry_backoff_s=5.0),
                    crashes=(CrashEvent(25.0, 0, 20.0),),
                )
            ],
        )
        result = engine.run(
            [[Job(0, 0.0, 50.0, (0.6, 0.1, 0.1)), Job(1, 1.0, 50.0, (0.6, 0.1, 0.1))]]
        )
        m = result.sites[0].metrics
        assert m.n_completed == 2
        assert m.n_retries == 2
        assert runtime.total_jobs_killed == 1  # only job 0 was running

    def test_overlapping_crashes_collapse(self):
        engine = one_site(num_servers=1)
        runtime = install_faults(
            engine,
            [
                plan(
                    FaultSpec(retry_backoff_s=5.0),
                    crashes=(CrashEvent(20.0, 0, 40.0), CrashEvent(30.0, 0, 40.0)),
                )
            ],
        )
        result = engine.run([[Job(0, 0.0, 100.0, (0.3, 0.1, 0.1))]])
        assert runtime.total_crashes == 1  # second crash hit a down server
        assert result.sites[0].metrics.n_completed == 1


class TestRetriesAndFailures:
    def test_retry_budget_exhaustion_fails_the_job(self):
        engine = one_site(num_servers=1)
        install_faults(
            engine,
            [plan(FaultSpec(job_failure_prob=1.0, max_retries=1, retry_backoff_s=5.0))],
        )
        result = engine.run([[Job(0, 0.0, 10.0, (0.3, 0.1, 0.1))]])
        m = result.sites[0].metrics
        assert m.n_completed == 0
        assert m.n_retries == 1
        assert m.n_failed == 1
        assert RunResult.from_run("round-robin", result).goodput == 0.0

    def test_goodput_mixes_completions_and_failures(self):
        engine = one_site(num_servers=2)
        install_faults(
            engine,
            [plan(FaultSpec(job_failure_prob=0.5, max_retries=0), seed=11)],
        )
        result = engine.run([jobs_burst(30)])
        m = result.sites[0].metrics
        assert m.n_completed + m.n_failed == 30
        assert 0 < m.n_failed < 30  # p=0.5, max_retries=0: both happen
        assert RunResult.from_run("round-robin", result).goodput == pytest.approx(
            m.n_completed / (m.n_completed + m.n_failed)
        )

    def test_straggler_stretches_service_time(self):
        baseline = one_site(num_servers=1).run([[Job(0, 0.0, 40.0, (0.3, 0.1, 0.1))]])
        engine = one_site(num_servers=1)
        runtime = install_faults(
            engine,
            [plan(FaultSpec(straggler_prob=1.0, straggler_factor=3.0))],
        )
        result = engine.run([[Job(0, 0.0, 40.0, (0.3, 0.1, 0.1))]])
        assert runtime.total_stragglers == 1
        assert result.sites[0].metrics.acc_latency == pytest.approx(
            3.0 * baseline.sites[0].metrics.acc_latency
        )


class TestDegradedRouting:
    def test_broker_exception_contained_by_fallback(self):
        engine = one_site(num_servers=2, broker=FaultyBroker())
        runtime = install_faults(engine, [plan(FaultSpec(job_failure_prob=0.0))])
        result = engine.run([jobs_burst(10)])
        assert result.sites[0].metrics.n_completed == 10
        assert runtime.broker_fallbacks == 10

    def test_out_of_range_broker_decision_contained(self):
        engine = one_site(num_servers=2, broker=PickServer(99))
        runtime = install_faults(engine, [plan()])
        result = engine.run([jobs_burst(6)])
        assert result.sites[0].metrics.n_completed == 6
        assert runtime.broker_fallbacks == 6

    def test_arrivals_route_around_a_down_server(self):
        # The broker insists on server 0, which is down for the whole
        # arrival window; every job must be rerouted to server 1.
        engine = one_site(num_servers=2, broker=PickServer(0))
        runtime = install_faults(
            engine,
            [
                plan(
                    FaultSpec(retry_backoff_s=5.0),
                    crashes=(CrashEvent(0.0, 0, 500.0),),
                )
            ],
        )
        result = engine.run([jobs_burst(8, spacing=10.0, offset=1.0)])
        assert result.sites[0].metrics.n_completed == 8
        assert runtime.rerouted == 8
        servers = result.sites[0].cluster.servers
        assert servers[0].jobs_completed == 0
        assert servers[1].jobs_completed == 8

    def test_dark_site_reroutes_to_live_site(self):
        engine = build_federation(
            [
                dict(
                    name="a",
                    num_servers=1,
                    broker=RoundRobinBroker(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                ),
                dict(
                    name="b",
                    num_servers=1,
                    broker=RoundRobinBroker(),
                    policies=AlwaysOnPolicy(),
                    initially_on=True,
                ),
            ]
        )
        runtime = install_faults(
            engine,
            [
                plan(
                    FaultSpec(retry_backoff_s=5.0),
                    crashes=(CrashEvent(0.0, 0, 1000.0),),
                ),
                None,
            ],
        )
        result = engine.run([jobs_burst(6, offset=1.0), []])
        assert RunResult.from_run("dark", result, runtime).n_jobs == 6
        assert runtime.rerouted >= 6
        # All the work landed on site b; site a stayed dark.
        assert result.sites[1].metrics.n_completed == 6
        assert runtime.site_availability(0, result.final_time) < 1.0
        assert runtime.site_availability(1, result.final_time) == 1.0

    def test_all_sites_dark_still_terminates(self):
        # Both servers down at t=0; arrivals queue at the fallback and
        # run once recovery restores capacity — nothing is lost.
        engine = one_site(num_servers=1)
        result_engine = install_faults(
            engine,
            [
                plan(
                    FaultSpec(retry_backoff_s=5.0),
                    crashes=(CrashEvent(0.0, 0, 200.0),),
                )
            ],
        )
        result = engine.run([jobs_burst(4, offset=1.0)])
        assert result.sites[0].metrics.n_completed == 4
        assert result.final_time > 200.0
        assert result_engine.total_crashes == 1
