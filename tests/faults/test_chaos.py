"""Chaos property tests: conservation, determinism, monotone clocks.

Hypothesis drives random workloads through randomly-parameterized fault
plans (cluster and federation) and asserts the invariants the runtime
guarantees no matter what breaks:

* **Job conservation** — every offered job is eventually completed or
  explicitly failed; nothing is silently dropped by a crash, reroute,
  or retry.
* **Monotone event clock** — fault events never push the simulation
  clock backwards.
* **Same-seed determinism** — a faulted run is a pure function of
  (workload, plan): re-running it reproduces every metric bit-for-bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.faults.inject import install_faults
from repro.faults.plan import build_site_plan
from repro.faults.spec import FaultSpec
from repro.harness.runner import RunResult
from repro.sim.federation import build_federation
from repro.sim.job import Job


@st.composite
def job_streams(draw, max_jobs=20):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    arrivals = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    jobs = []
    for i, arrival in enumerate(arrivals):
        duration = draw(st.floats(min_value=1.0, max_value=300.0))
        cpu = draw(st.floats(min_value=0.05, max_value=0.9))
        jobs.append(Job(i, arrival, duration, (cpu, 0.1, 0.1)))
    return jobs


@st.composite
def fault_specs(draw):
    return FaultSpec(
        crashes_per_server=draw(st.floats(min_value=0.0, max_value=2.0)),
        crash_recovery_fraction=draw(st.floats(min_value=0.01, max_value=0.2)),
        job_failure_prob=draw(st.floats(min_value=0.0, max_value=0.4)),
        straggler_prob=draw(st.floats(min_value=0.0, max_value=0.4)),
        straggler_factor=draw(st.floats(min_value=1.0, max_value=4.0)),
        max_retries=draw(st.integers(min_value=0, max_value=3)),
        retry_backoff_s=draw(st.floats(min_value=1.0, max_value=60.0)),
    )


def build_engine(n_sites, num_servers=2):
    return build_federation(
        [
            dict(
                name=f"s{i}",
                num_servers=num_servers,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
            )
            for i in range(n_sites)
        ]
    )


def run_faulted(streams, spec, seed, num_servers=2):
    n_sites = len(streams)
    engine = build_engine(n_sites, num_servers)
    plans = [
        build_site_plan(spec, num_servers, 2000.0, seed + i)
        for i in range(n_sites)
    ]
    runtime = install_faults(engine, plans)
    scheduled = []
    original = engine.events.schedule

    def tracking_schedule(time, callback, kind="event"):
        event = original(time, callback, kind=kind)
        scheduled.append(event)
        return event

    engine.events.schedule = tracking_schedule
    result = engine.run([[j.copy() for j in s] for s in streams])
    return result, runtime, scheduled


def fingerprint(result, runtime):
    return [
        (
            site.metrics.n_arrived,
            site.metrics.n_completed,
            site.metrics.n_failed,
            site.metrics.n_retries,
            site.metrics.acc_latency,
            site.metrics.total_energy_kwh(),
        )
        for site in result.sites
    ] + [
        result.final_time,
        runtime.total_crashes,
        runtime.total_jobs_killed,
        runtime.total_stragglers,
        runtime.rerouted,
    ]


@settings(max_examples=25, deadline=None)
@given(stream=job_streams(), spec=fault_specs(), seed=st.integers(0, 2**16))
def test_cluster_conserves_jobs_under_chaos(stream, spec, seed):
    result, runtime, _ = run_faulted([stream], spec, seed)
    m = result.sites[0].metrics
    assert m.n_completed + m.n_failed == len(stream)
    assert m.n_failed <= m.n_retries + len(stream)
    assert 0.0 <= RunResult.from_run("chaos", result, runtime).goodput <= 1.0
    assert 0.0 <= runtime.fleet_availability(result.final_time) <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    streams=st.tuples(job_streams(max_jobs=10), job_streams(max_jobs=10)),
    spec=fault_specs(),
    seed=st.integers(0, 2**16),
)
def test_federation_conserves_jobs_under_chaos(streams, spec, seed):
    a, b = streams
    b = [Job(1000 + j.job_id, j.arrival_time, j.duration, j.resources) for j in b]
    result, runtime, _ = run_faulted([a, b], spec, seed)
    completed = sum(site.metrics.n_completed for site in result.sites)
    failed = sum(site.metrics.n_failed for site in result.sites)
    assert completed + failed == len(a) + len(b)


@settings(max_examples=15, deadline=None)
@given(stream=job_streams(), spec=fault_specs(), seed=st.integers(0, 2**16))
def test_same_seed_chaos_is_deterministic(stream, spec, seed):
    first = run_faulted([stream], spec, seed)
    second = run_faulted([stream], spec, seed)
    assert fingerprint(first[0], first[1]) == fingerprint(second[0], second[1])


@settings(max_examples=15, deadline=None)
@given(stream=job_streams(), spec=fault_specs(), seed=st.integers(0, 2**16))
def test_event_clock_never_runs_backwards(stream, spec, seed):
    result, _, scheduled = run_faulted([stream], spec, seed)
    # Every event (crash, recovery, retry, finish) lands at a
    # non-negative time, and the run's final clock bounds every event
    # that *executed*. Cancelled tombstones are exempt: a crash cancels
    # the victim's scheduled finish, and when the retried job completes
    # earlier than the original would have, the dead finish time is
    # legitimately never reached.
    assert all(e.time >= 0.0 for e in scheduled)
    executed = [e.time for e in scheduled if not e.cancelled]
    assert result.final_time >= max(executed, default=0.0)
