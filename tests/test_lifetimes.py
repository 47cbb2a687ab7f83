"""Lifetimes: what a finished stage dropped is freed at once.

A finished engine holds no reference cycle, so reference counting frees
it, its clusters and its brokers (with their replay memories) as soon as
the caller drops it, and the training and evaluation steps drop each
broker and system once their stage ends. Every test runs with the
cyclic garbage collector paused (:func:`tests.helpers.gc_paused`), so an
object that only the collector could free shows up as alive.
"""

import weakref

import numpy as np

from repro.core.baselines import ImmediateSleepPolicy, RoundRobinBroker
from repro.core.federation import DRLFederationBroker
from repro.core.global_tier import DRLGlobalBroker
from repro.core.predictor import WorkloadPredictor
from repro.faults.plan import scenario_fault_plans
from repro.harness import runner, tradeoff
from repro.harness.runner import (
    SWEEP_PROTOCOL,
    RunResult,
    standard_protocol,
    train_site_policy,
    untrained_broker,
)
from repro.harness.table1 import TABLE1_SYSTEMS, default_config, make_traces
from repro.obs import telemetry as obs
from repro.scenarios import registry
from repro.scenarios.federation import build_cell, build_federation_engine
from repro.sim.engine import build_simulation
from repro.sim.federation import build_federation
from repro.sim.job import Job
from tests.helpers import NO_TRAINING, ONE_EPOCH, gc_paused


def engine_refs(engine) -> dict[str, weakref.ref]:
    """Weak references to a federation engine, its clusters and its brokers."""
    objects = {"engine": engine}
    for i, site in enumerate(engine.sites):
        objects[f"sites[{i}].cluster"] = site.cluster
        objects[f"sites[{i}].broker"] = site.broker
        if isinstance(site.broker, DRLGlobalBroker):
            objects[f"sites[{i}].broker.replay"] = site.broker.replay
    if engine.broker is not None:
        objects["federation broker"] = engine.broker
    return {name: weakref.ref(obj) for name, obj in objects.items()}


def alive(refs: dict[str, weakref.ref]) -> list[str]:
    return [name for name, ref in refs.items() if ref() is not None]


def two_streams(n: int = 30) -> list[list[Job]]:
    """Two sites' home streams of ``n`` jobs each, fleet-wide unique ids."""
    return [
        [
            Job(site * n + i, 3.0 * site + 10.0 * i, 50.0, (0.3, 0.1, 0.1))
            for i in range(n)
        ]
        for site in range(2)
    ]


class TestEngines:
    def test_cluster_engine(self):
        config = default_config(6, seed=0)
        jobs, _ = make_traces(80, 6, 0)
        with gc_paused():
            engine = build_simulation(
                6, untrained_broker(config), ImmediateSleepPolicy()
            )
            engine.run(jobs)
            refs = engine_refs(engine.federation)
            del engine
            assert alive(refs) == []

    def test_two_sites_under_the_drl_dispatcher(self):
        with gc_paused():
            engine = build_federation(
                [
                    dict(
                        num_servers=3,
                        broker=RoundRobinBroker(),
                        policies=ImmediateSleepPolicy(),
                    )
                    for _ in range(2)
                ],
                broker=DRLFederationBroker(2, rng=np.random.default_rng(0)),
            )
            result = engine.run(two_streams())
            refs = engine_refs(engine)
            del engine, result
            assert alive(refs) == []

    def test_faulted_cell_engine(self):
        spec = registry.get("degraded-federation")
        with gc_paused():
            systems, broker, streams = build_cell(
                "round-robin", spec, 120, SWEEP_PROTOCOL, seed=0
            )
            engine = build_federation_engine(
                spec,
                systems,
                broker,
                SWEEP_PROTOCOL.record_every,
                faults=scenario_fault_plans(spec, 120, 0),
            )
            del systems, broker
            result = engine.run(streams)
            runtime = engine.faults
            fleet = RunResult.from_run("round-robin", result, runtime)
            final_time = result.final_time
            refs = engine_refs(engine)
            del engine, result
            assert alive(refs) == []
            # The runtime outlives the engine and still reads the same.
            assert runtime.total_crashes > 0
            assert runtime.fleet_availability(final_time) == fleet.availability < 1.0

    def test_profiled_run(self):
        with gc_paused():
            engine = build_federation(
                [
                    dict(
                        num_servers=3,
                        broker=RoundRobinBroker(),
                        policies=ImmediateSleepPolicy(),
                    )
                    for _ in range(2)
                ]
            )
            with obs.capture() as tel:
                engine.run(two_streams())
            refs = engine_refs(engine)
            del engine
            assert alive(refs) == []
            assert tel.snapshot()["counters"]["jobs.completed"] == 60


def record(monkeypatch, cls) -> list[weakref.ref]:
    """Weak references to every ``cls`` built while the test runs."""
    made: list[weakref.ref] = []
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", __init__)
    return made


class TestTraining:
    def test_prototype_broker_is_gone_before_the_predictor_trains(self, monkeypatch):
        brokers = record(monkeypatch, DRLGlobalBroker)
        alive_at_fit: list[int] = []
        fit = WorkloadPredictor.fit

        def recording_fit(self, *args, **kwargs):
            alive_at_fit.append(sum(ref() is not None for ref in brokers))
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadPredictor, "fit", recording_fit)
        _, train_traces = make_traces(60, 6, 0)
        with gc_paused():
            policy = train_site_policy(
                default_config(6, seed=0),
                train_traces,
                ONE_EPOCH,
                with_predictor=True,
            )
            assert len(brokers) == 1
            assert alive_at_fit == [0]
            assert brokers[0]() is None
        assert policy.predictor_state is not None


class TestEvaluation:
    def systems_alive_at_each_build(self, monkeypatch) -> list[int]:
        """How many built systems are alive as each next one is built."""
        built: list[weakref.ref] = []
        counts: list[int] = []
        make_system = runner.make_system

        def recording(*args, **kwargs):
            counts.append(sum(ref() is not None for ref in built))
            system = make_system(*args, **kwargs)
            built.append(weakref.ref(system))
            return system

        monkeypatch.setattr(runner, "make_system", recording)
        monkeypatch.setattr(tradeoff, "make_system", recording)
        return counts

    def test_standard_protocol_holds_one_system_at_a_time(self, monkeypatch):
        counts = self.systems_alive_at_each_build(monkeypatch)
        eval_jobs, train_traces = make_traces(60, 6, 0)
        with gc_paused():
            results = standard_protocol(
                TABLE1_SYSTEMS,
                eval_jobs,
                default_config(6, seed=0),
                train_traces,
                NO_TRAINING,
            )
        assert list(results) == list(TABLE1_SYSTEMS)
        assert counts == [0, 0, 0]

    def test_tradeoff_holds_one_system_at_a_time(self, monkeypatch):
        counts = self.systems_alive_at_each_build(monkeypatch)
        with gc_paused():
            points = tradeoff.run_tradeoff(
                n_jobs=60,
                num_servers=6,
                w_sweep=(0.3, 0.7),
                timeouts=(30.0,),
                protocol=NO_TRAINING,
            )
        assert len(points) == 3
        assert counts == [0, 0, 0]
