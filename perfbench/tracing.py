"""Spans around the calls into each layer, recorded from outside.

:func:`traced` wraps the public functions listed in :data:`BOUNDARIES`
(on their classes, or on every ``repro`` module that holds a module
function by name) and switches on ``repro.obs.capture()`` for the
engine's own phase attribution. Each wrapped call records one span:
name, start, end, parent span and cell. Spans stay in memory;
:meth:`Tracer.table` exports them and :func:`layer_metrics` reduces
them to the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Iterator

import numpy as np

#: (span name, wrapped target as ``module:Class.attr`` or ``module:function``).
BOUNDARIES = (
    ("core.select_server", "repro.core.global_tier:DRLGlobalBroker.select_server"),
    ("core.encode", "repro.core.state:StateEncoder.encode"),
    ("core.q_values", "repro.core.qnetwork:HierarchicalQNetwork.q_values"),
    ("core.train_minibatch", "repro.core.global_tier:DRLGlobalBroker.train_minibatch"),
    ("core.qnet_train_step", "repro.core.qnetwork:HierarchicalQNetwork.train_step"),
    ("core.offline_pretrain", "repro.core.global_tier:offline_pretrain"),
    ("core.select_site", "repro.core.federation:StaticHomeBroker.select_site"),
    ("core.select_site", "repro.core.federation:LeastLoadedSiteBroker.select_site"),
    ("core.select_site", "repro.core.federation:TariffGreedySiteBroker.select_site"),
    ("core.select_site", "repro.core.federation:DRLFederationBroker.select_site"),
    ("core.state_views", "repro.core.federation:FederationStateView.state_views"),
    ("core.predictor_fit", "repro.core.predictor:WorkloadPredictor.fit"),
    ("core.predictor_predict", "repro.core.predictor:WorkloadPredictor.predict"),
    ("core.local_on_idle", "repro.core.local_tier:RLPowerPolicy.on_idle"),
    ("nn.lstm_fit", "repro.nn.lstm:LSTMNetwork.fit"),
    ("nn.lstm_predict", "repro.nn.lstm:LSTMNetwork.predict"),
    ("nn.optim_step", "repro.nn.optim:Adam.step"),
    ("nn.optim_step", "repro.nn.optim:SGD.step"),
    ("rl.replay_push", "repro.rl.replay:ReplayMemory.push"),
    ("rl.replay_sample", "repro.rl.replay:ReplayMemory.sample_arrays"),
    ("rl.smdp_update", "repro.rl.smdp:SMDPQLearner.update"),
    ("sim.engine_run", "repro.sim.federation:FederationEngine.run"),
    ("workload.generate_trace", "repro.workload.synthetic:generate_trace"),
    ("workload.build_traces", "repro.scenarios.specs:ScenarioSpec.build_traces"),
    ("workload.build_traces", "repro.scenarios.specs:ScenarioSpec.build_site_traces"),
    (
        "workload.read_google_task_events",
        "repro.workload.trace:read_google_task_events",
    ),
    ("scenarios.run_cell", "repro.scenarios.orchestrator:run_cell"),
    ("scenarios.sweep", "repro.scenarios.orchestrator:sweep"),
    ("scenarios.store_put", "repro.scenarios.store:ResultStore.put"),
    ("harness.train_global_prototype", "repro.harness.runner:train_global_prototype"),
    ("harness.make_system", "repro.harness.runner:make_system"),
    ("harness.run_system", "repro.harness.runner:run_system"),
)

#: Spans that open a cell; the outermost open one names the cell of
#: every span inside it.
CELL_SPANS = frozenset({"scenarios.run_cell", "harness.run_system", "sim.engine_run"})


def _jobs_through(result) -> int:
    """Jobs an engine run resolved (completed or failed), across sites."""
    return sum(s.metrics.n_completed + s.metrics.n_failed for s in result.sites)


class Tracer:
    """In-memory span recorder; one per traced run.

    ``engine_jobs`` counts the jobs every ``sim.engine_run`` resolved,
    the base of the ``sim.*`` per-job phase metrics.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.engine_jobs = 0
        self._stack: list[int] = []
        self._cell = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        opens_cell = name in CELL_SPANS
        counts_jobs = name == "sim.engine_run"
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            outer_cell = self._cell
            if opens_cell and outer_cell < 0:
                self._cell = index
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cell.append(self._cell)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._cell = outer_cell
                self.start[index] = t0
                self.end[index] = t1
            if counts_jobs:
                self.engine_jobs += _jobs_through(result)
            return result

        return wrapper

    def table(self, run_id: int) -> dict:
        """The spans as JSON-able columns (``trace.json``'s run entries)."""
        return {
            "run": run_id,
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "cell": self.cell.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


def _install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every boundary; returns ``(owner, attribute, original)`` to undo."""
    undo = []
    for name, target in BOUNDARIES:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            undo.append((owner, attr, original))
            continue
        original = getattr(module, qualname)
        wrapper = tracer.wrap(name, original)
        # Modules that imported the function by name hold their own
        # reference to it; rebind each of those too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


@contextlib.contextmanager
def traced() -> Iterator[tuple[Tracer, object]]:
    """Wrap every boundary and capture ``repro.obs`` for the block.

    Yields ``(tracer, telemetry)``; the originals are restored on exit.
    """
    from repro.obs import telemetry as obs

    tracer = Tracer()
    undo = _install(tracer)
    try:
        with obs.capture() as tel:
            yield tracer, tel
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: obs phase -> per-layer metric (self microseconds per engine job).
SIM_PHASES = {
    "loop.pop": "sim.loop_pop",
    "loop.event": "sim.loop_event",
    "site.settle": "sim.site_settle",
    "site.dispatch": "sim.site_dispatch",
    "fed.route": "sim.fed_route",
}

#: obs counter -> per-layer metric.
FAULT_COUNTERS = {
    "faults.retries": "faults.retries",
    "faults.jobs_failed": "faults.failed_jobs",
    "faults.broker_fallbacks": "faults.broker_fallbacks",
    "faults.crashes": "faults.crashes",
    "faults.rerouted": "faults.rerouted",
}


def layer_metrics(
    tracer: Tracer, snapshot: dict, wall_s: float, completed: int
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``wall_s`` is the traced call's duration and ``completed`` the jobs
    its evaluation cells completed; a boundary the workload never
    reached reports 0.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_s = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_s = dur - child_s[: len(dur)]
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def select(span: str) -> np.ndarray:
        return name == tracer.name_id(span)

    out: dict[str, tuple[float, str]] = {}

    def timing(prefix: str, mask: np.ndarray, *stats: str) -> None:
        calls = int(mask.sum())
        d, own = (dur[mask], self_s[mask]) if calls else (np.zeros(1), np.zeros(1))
        values = {
            "calls": (float(calls), "count"),
            "mean_us": (float(d.mean() * 1e6), "us"),
            "p50_us": (float(np.percentile(d, 50) * 1e6), "us"),
            "p99_us": (float(np.percentile(d, 99) * 1e6), "us"),
            "self_us": (float(own.mean() * 1e6), "us"),
            "total_ms": (float(d.sum() * 1e3), "ms"),
            "p50_ms": (float(np.percentile(d, 50) * 1e3), "ms"),
            "max_ms": (float(d.max() * 1e3), "ms"),
            "self_ms": (float(own.sum() * 1e3), "ms"),
        }
        for stat in stats:
            out[f"{prefix}.{stat}"] = values[stat]

    select_server = select("core.select_server")
    fed_parent = parent_name == tracer.name_id("core.select_site")
    for tier, mask in (
        ("site", select_server & ~fed_parent),
        ("fed", select_server & fed_parent),
    ):
        prefix = f"core.select_server.{tier}"
        timing(prefix, mask, "calls", "p50_us", "p99_us", "self_us")
    for span, stats in (
        ("core.encode", ("calls", "mean_us")),
        ("core.q_values", ("calls", "mean_us")),
        ("core.train_minibatch", ("calls", "mean_us", "p99_us")),
        ("core.qnet_train_step", ("mean_us",)),
        ("core.offline_pretrain", ("total_ms",)),
        ("core.select_site", ("calls", "p50_us", "p99_us")),
        ("core.state_views", ("calls", "mean_us")),
        ("core.predictor_fit", ("total_ms",)),
        ("core.predictor_predict", ("calls", "mean_us")),
        ("core.local_on_idle", ("calls", "mean_us")),
        ("nn.lstm_fit", ("total_ms",)),
        ("nn.lstm_predict", ("calls", "mean_us")),
        ("nn.optim_step", ("calls", "mean_us")),
        ("rl.replay_push", ("calls", "mean_us")),
        ("rl.replay_sample", ("calls", "mean_us")),
        ("rl.smdp_update", ("calls", "mean_us")),
        ("sim.engine_run", ("calls", "total_ms")),
        ("workload.generate_trace", ("calls", "total_ms")),
        ("workload.build_traces", ("calls", "total_ms")),
        ("workload.read_google_task_events", ("total_ms",)),
        ("scenarios.run_cell", ("calls", "p50_ms", "max_ms", "self_ms")),
        ("scenarios.sweep", ("self_ms",)),
        ("scenarios.store_put", ("calls", "mean_us")),
        ("harness.train_global_prototype", ("total_ms",)),
        ("harness.make_system", ("total_ms",)),
        ("harness.run_system", ("total_ms",)),
    ):
        timing(span, select(span), *stats)

    jobs = tracer.engine_jobs
    out["sim.engine_run.jobs"] = (float(jobs), "count")
    spans = snapshot.get("spans", {})
    for phase, metric in SIM_PHASES.items():
        self_phase = spans.get(phase, {}).get("self_s", 0.0)
        out[metric] = (self_phase * 1e6 / jobs if jobs else 0.0, "us/job")

    counters = snapshot.get("counters", {})
    for counter, metric in FAULT_COUNTERS.items():
        out[metric] = (float(counters.get(counter, 0)), "count")
    retries, failed = out["faults.retries"][0], out["faults.failed_jobs"][0]
    attempts = completed + retries + failed
    out["faults.goodput"] = (completed / attempts if attempts else 1.0, "fraction")

    eval_ms = out["harness.run_system.total_ms"][0]
    out["harness.eval_share"] = (eval_ms / (wall_s * 1e3), "fraction")
    return out
