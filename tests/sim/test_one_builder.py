"""The one engine builder: ``build_federation`` makes every fleet.

Two things are pinned here. The builder's fixed order (clusters on one
clock, then churn, then the engine, then faults) gives the same run as
an engine assembled by hand in that order. And no other code in
``src/repro`` constructs an event queue, a cluster, a site or a metrics
collector.
"""

import ast
from pathlib import Path

import repro
from repro.core.baselines import FixedTimeoutPolicy, RoundRobinBroker
from repro.core.federation import LeastLoadedSiteBroker
from repro.faults.inject import install_faults
from repro.faults.plan import CrashEvent, SiteFaultPlan
from repro.faults.spec import FaultSpec
from repro.sim.churn import CapacityEvent, schedule_capacity_events
from repro.sim.cluster import Cluster
from repro.sim.events import EventQueue
from repro.sim.federation import FederationEngine, Site, build_federation
from repro.sim.metrics import MetricsCollector
from repro.sim.power import PowerModel
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace

N_SERVERS, N_JOBS, HORIZON = 4, 120, 120 * 30.0
OUTAGE = 0.5 * HORIZON

# The whole site crashes at OUTAGE, the instant server 0 starts a
# partial drain. Jobs arriving during the outage queue on server 0, and
# start there only if the drain (capacity 0.5) fires after the crash
# (capacity 0). So the event queue's tie-break, which the build order
# fixes, decides the run.
CHURN = (
    CapacityEvent(time=0.2 * HORIZON, server_id=1, duration=0.1 * HORIZON),
    CapacityEvent(time=OUTAGE, server_id=0, duration=0.2 * HORIZON, fraction=0.5),
)
FAULTS = SiteFaultPlan(
    spec=FaultSpec(job_failure_prob=0.2, straggler_prob=0.1, max_retries=1),
    seed=7,
    crashes=tuple(
        CrashEvent(OUTAGE, server_id, 0.1 * HORIZON) for server_id in range(N_SERVERS)
    ),
)


def site_args(n_sites, churn):
    """Fresh site arguments (brokers and policies are single-use)."""
    return [
        dict(
            name=f"s{i}",
            num_servers=N_SERVERS,
            broker=RoundRobinBroker(),
            policies=FixedTimeoutPolicy(45.0),
            record_every=10,
            capacity_events=churn[i],
        )
        for i in range(n_sites)
    ]


def hand_built(site_args, broker=None, faults=None):
    """The fleet in the order the builders used before there was one."""
    events = EventQueue()
    sites = [
        Site(
            name=args["name"],
            cluster=Cluster(
                num_servers=args["num_servers"],
                power_model=PowerModel(),
                events=events,
                policies=args["policies"],
            ),
            broker=args["broker"],
            metrics=MetricsCollector(record_every=args["record_every"]),
        )
        for args in site_args
    ]
    for site, args in zip(sites, site_args):
        schedule_capacity_events(site.cluster, args["capacity_events"])
    engine = FederationEngine(sites, broker)
    if faults is not None:
        install_faults(engine, faults)
    return engine


def streams(n_sites):
    config = SyntheticTraceConfig(n_jobs=N_JOBS, horizon=HORIZON)
    return [
        generate_trace(config, seed=i, start_id=i * N_JOBS) for i in range(n_sites)
    ]


def outcome(engine, n_sites):
    result = engine.run(streams(n_sites))
    return [
        (
            site.metrics.series,
            site.metrics.total_energy_kwh(),
            site.metrics.acc_latency,
            site.metrics.n_failed,
            site.metrics.n_retries,
        )
        for site in result.sites
    ]


class TestBuildOrder:
    def test_churned_and_faulted_site(self):
        churn = [CHURN]
        built = build_federation(site_args(1, churn), faults=[FAULTS])
        by_hand = hand_built(site_args(1, churn), faults=[FAULTS])
        got, want = outcome(built, 1), outcome(by_hand, 1)
        assert got == want
        # The oracle is not vacuous: the run saw retries and failures.
        assert want[0][4] > 0 and want[0][3] > 0

    def test_churn_on_one_site_faults_on_the_other(self):
        churn = [(), CHURN]
        built = build_federation(
            site_args(2, churn), LeastLoadedSiteBroker(), faults=[FAULTS, None]
        )
        by_hand = hand_built(
            site_args(2, churn), LeastLoadedSiteBroker(), faults=[FAULTS, None]
        )
        assert outcome(built, 2) == outcome(by_hand, 2)

    def test_no_faults_installs_no_runtime(self):
        assert build_federation(site_args(1, [()])).faults is None
        assert build_federation(site_args(1, [()]), faults=[None]).faults is not None


BUILT_ONLY_BY_THE_BUILDER = {"EventQueue", "Cluster", "Site", "MetricsCollector"}


def constructor_calls():
    """``(module, enclosing function, class)`` per call of the four classes."""
    root = Path(repro.__file__).parent
    calls = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            elif isinstance(child, ast.Call):
                func = child.func
                called = getattr(func, "id", getattr(func, "attr", None))
                if called in BUILT_ONLY_BY_THE_BUILDER:
                    calls.append((module, function, called))
            visit(child, module, name)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root.parent).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), module, None)
    return calls


class TestOneBuilder:
    def test_only_build_federation_constructs_engine_parts(self):
        calls = constructor_calls()
        assert sorted(calls) == sorted(
            ("repro/sim/federation.py", "build_federation", name)
            for name in BUILT_ONLY_BY_THE_BUILDER
        )
