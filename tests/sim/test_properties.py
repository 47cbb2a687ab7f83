"""Property-based tests (hypothesis) for simulator invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    AlwaysOnPolicy,
    ImmediateSleepPolicy,
    FixedTimeoutPolicy,
    RandomBroker,
    RoundRobinBroker,
)
from repro.sim.engine import build_simulation
from repro.sim.events import EventQueue
from repro.sim.job import Job
from repro.sim.power import PowerModel
from repro.sim.server import _EPS, Server


@st.composite
def job_traces(draw, max_jobs=25):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    arrivals = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    jobs = []
    for i, arrival in enumerate(arrivals):
        duration = draw(st.floats(min_value=1.0, max_value=500.0))
        cpu = draw(st.floats(min_value=0.05, max_value=1.0))
        mem = draw(st.floats(min_value=0.05, max_value=1.0))
        jobs.append(Job(i, arrival, duration, (cpu, mem, 0.1)))
    return jobs


def policies_for(kind):
    if kind == "always-on":
        return AlwaysOnPolicy(), True
    if kind == "immediate":
        return ImmediateSleepPolicy(), False
    return FixedTimeoutPolicy(45.0), False


POLICY_KINDS = ["always-on", "immediate", "fixed"]


@settings(max_examples=30, deadline=None)
@given(trace=job_traces(), kind=st.sampled_from(POLICY_KINDS))
def test_all_jobs_complete_and_latency_bounds(trace, kind):
    policy, on = policies_for(kind)
    engine = build_simulation(3, RoundRobinBroker(), policy, initially_on=on)
    result = engine.run([j.copy() for j in trace])
    assert result.metrics.n_completed == len(trace)


@settings(max_examples=30, deadline=None)
@given(trace=job_traces(), kind=st.sampled_from(POLICY_KINDS))
def test_latency_at_least_duration(trace, kind):
    policy, on = policies_for(kind)
    engine = build_simulation(3, RoundRobinBroker(), policy, initially_on=on)
    jobs = [j.copy() for j in trace]
    engine.run(jobs)
    for job in jobs:
        assert job.latency >= job.duration - 1e-9
        assert job.wait_time >= -1e-9


@settings(max_examples=30, deadline=None)
@given(trace=job_traces(), kind=st.sampled_from(POLICY_KINDS))
def test_energy_non_negative_and_bounded_by_peak(trace, kind):
    policy, on = policies_for(kind)
    engine = build_simulation(3, RoundRobinBroker(), policy, initially_on=on)
    result = engine.run([j.copy() for j in trace])
    assert result.cluster.total_energy() >= 0.0
    # Peak bound: no server can draw more than transition/peak power.
    ceiling = 3 * 145.0 * max(result.final_time, 1e-9)
    assert result.cluster.total_energy() <= ceiling + 1e-6


@settings(max_examples=30, deadline=None)
@given(trace=job_traces())
def test_integrals_non_negative_and_consistent(trace):
    engine = build_simulation(
        3, RandomBroker(np.random.default_rng(0)), ImmediateSleepPolicy()
    )
    result = engine.run([j.copy() for j in trace])
    for server in result.cluster.servers:
        assert server.queue_integral >= -1e-9
        assert server.system_integral >= server.queue_integral - 1e-9
        assert server.overload_integral >= -1e-9


@settings(max_examples=30, deadline=None)
@given(trace=job_traces())
def test_system_integral_equals_total_latency(trace):
    # Little's law bookkeeping: the time integral of jobs-in-system equals
    # the sum of job latencies (arrival->completion) exactly.
    engine = build_simulation(
        3, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
    )
    jobs = [j.copy() for j in trace]
    result = engine.run(jobs)
    total_latency = sum(j.latency for j in jobs)
    assert result.cluster.system_integral() == np.float64(
        total_latency
    ) or abs(result.cluster.system_integral() - total_latency) < 1e-6 * max(
        total_latency, 1.0
    )


@settings(max_examples=20, deadline=None)
@given(trace=job_traces(), seed=st.integers(min_value=0, max_value=2**16))
def test_random_broker_in_range(trace, seed):
    engine = build_simulation(
        4, RandomBroker(np.random.default_rng(seed)), ImmediateSleepPolicy()
    )
    jobs = [j.copy() for j in trace]
    engine.run(jobs)
    assert all(0 <= j.server_id < 4 for j in jobs)


@settings(max_examples=20, deadline=None)
@given(trace=job_traces())
def test_fcfs_start_order_per_server(trace):
    # On each server, start times follow assignment order (strict FCFS).
    engine = build_simulation(
        2, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
    )
    jobs = [j.copy() for j in trace]
    engine.run(jobs)
    per_server: dict[int, list[Job]] = {}
    for job in jobs:  # trace order == assignment order per server
        per_server.setdefault(job.server_id, []).append(job)
    for assigned in per_server.values():
        starts = [j.start_time for j in assigned]
        assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))


@st.composite
def fit_cases(draw):
    """A server's used/capacity state plus a demand, biased to the edges.

    ``mode`` picks the demand: free-drawn, or exactly the headroom
    ``capacity + _EPS - used`` of every dimension (the tolerance
    boundary), or one ulp past it. Capacity comes from ``set_capacity``
    and includes the fully drained server (0.0).
    """
    d = draw(st.integers(min_value=1, max_value=3))
    unit = st.floats(min_value=0.0, max_value=1.0)
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit))
    used = draw(st.lists(unit, min_size=d, max_size=d))
    mode = draw(st.sampled_from(["free", "boundary", "past"]))
    if mode == "free":
        positive = st.floats(min_value=1e-12, max_value=1.0)
        demand = draw(st.lists(positive, min_size=d, max_size=d))
    else:
        demand = [fraction + _EPS - u for u in used]
        if mode == "past":
            demand = [float(np.nextafter(x, np.inf)) for x in demand]
        demand = [min(max(x, 1e-12), 1.0) for x in demand]
    return d, fraction, used, demand


@settings(max_examples=300, deadline=None)
@given(case=fit_cases())
def test_fits_matches_array_comparison(case):
    d, fraction, used, demand = case
    server = Server(0, PowerModel(), EventQueue(), AlwaysOnPolicy(), num_resources=d)
    server.set_capacity(0.0, fraction)
    server.used[:] = used
    job = Job(0, 0.0, 1.0, tuple(demand))
    expected = np.all(server.used + np.asarray(demand) <= server.capacity + _EPS)
    assert server.fits(job) is bool(expected)
