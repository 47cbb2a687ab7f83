"""The benchmark's four workloads: inputs from a seed, one call, checks.

Each workload is a batch job with one caller making one call. Its
``prepare`` function builds every input from the seed (this is what
``setup_s`` times) and returns a :class:`Prepared` whose ``call`` runs the
measured work once and reports one :class:`Cell` per operation. Why
each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Default sizes: every call takes a few seconds on one core.
TABLE1_JOBS = 300
ONLINE_JOBS = 3_000
SWEEP_JOBS_PER_CELL = 400
FED_JOBS = 500

#: Cluster shape of the drl-online workload (the paper's M=30, K=3).
ONLINE_SERVERS, ONLINE_GROUPS = 30, 3

#: The heuristic systems the sweep runs on every builtin scenario.
SWEEP_SYSTEMS = ("round-robin", "packing")


@dataclass
class Cell:
    """One operation's output, reduced to what the checks read."""

    label: str
    offered: int
    completed: int
    failed: int
    energy: float
    latency: float
    series: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def check(self) -> None:
        """Record conservation and finiteness violations in ``problems``."""
        if self.completed + self.failed != self.offered:
            self.problems.append(
                f"{self.label}: completed {self.completed} + failed "
                f"{self.failed} != offered {self.offered}"
            )
        if not (math.isfinite(self.energy) and math.isfinite(self.latency)):
            self.problems.append(f"{self.label}: energy or latency not finite")


def failed_cell(label: str, problem: str) -> Cell:
    return Cell(label, 0, 0, 0, 0.0, 0.0, problems=[problem])


@dataclass
class Prepared:
    """A workload ready to run: ``call`` may be invoked once."""

    n_cells: int
    call: Callable[[], list[Cell]]


def _series(*series) -> list:
    return [[[int(n), float(v)] for n, v in s] for s in series]


def _cell_from_result(label: str, r: dict) -> Cell:
    """A cell from the result dict ``run_cell`` returns."""
    return Cell(
        label,
        offered=r["n_jobs_offered"],
        completed=r["n_jobs_completed"],
        failed=r["failed_jobs"],
        energy=float(r["energy_kwh"]),
        latency=float(r["acc_latency_s"]),
        series=_series(r["latency_series"], r["energy_series"]),
    )


def digest(cells: list[Cell]) -> str:
    """Hash of every cell's energy, latency and series, bit for bit."""
    payload = [[c.label, c.energy, c.latency, c.series] for c in cells]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# paper-table1
# ----------------------------------------------------------------------


def _table1_shape(m: int, results: dict) -> list[str]:
    """The Table I shape predicates that hold at every seed tried.

    Round-robin has the lowest latency and the highest energy and power,
    and the hierarchical system saves over 20% of its power and energy.
    The "hierarchical is not dominated by DRL-only" predicate is left
    out: at this size it fails on some seeds (README.md).
    """
    from repro.harness.claims import evaluate_claims
    from repro.harness.table1 import Table1Row

    rr = results["round-robin"]
    runs = results.values()
    problems = []
    if rr.acc_latency != min(r.acc_latency for r in runs):
        problems.append(f"M={m}: round-robin is not the lowest-latency system")
    if rr.energy_kwh != max(r.energy_kwh for r in runs):
        problems.append(f"M={m}: round-robin is not the highest-energy system")
    if rr.average_power != max(r.average_power for r in runs):
        problems.append(f"M={m}: round-robin is not the highest-power system")
    rows = [Table1Row.from_result(r) for r in runs]
    report = evaluate_claims(rows, num_servers=m)
    if report.power_saving_vs_round_robin <= 0.20:
        problems.append(f"M={m}: hierarchical saves <=20% power vs round-robin")
    if report.energy_saving_vs_round_robin <= 0.20:
        problems.append(f"M={m}: hierarchical saves <=20% energy vs round-robin")
    return problems


def paper_table1(seed: int, n: int, workdir: Path) -> Prepared:
    """Table I: round-robin, DRL-only, hierarchical at M=30 and M=40."""
    from repro.harness.runner import standard_protocol
    from repro.harness.table1 import TABLE1_SYSTEMS, default_config, make_traces

    inputs = [
        (m, default_config(m, seed=seed), *make_traces(n, m, seed)) for m in (30, 40)
    ]

    def call() -> list[Cell]:
        cells = []
        for m, config, eval_jobs, train_traces in inputs:
            results = standard_protocol(TABLE1_SYSTEMS, eval_jobs, config, train_traces)
            shape = _table1_shape(m, results)
            for name, r in results.items():
                cell = Cell(
                    f"M={m} {name}",
                    offered=len(eval_jobs),
                    completed=r.n_jobs,
                    failed=r.failed_jobs,
                    energy=r.energy_kwh,
                    latency=r.acc_latency,
                    series=_series(r.latency_series, r.energy_series),
                    problems=list(shape),
                )
                cells.append(cell)
        return cells

    return Prepared(2 * len(TABLE1_SYSTEMS), call)


# ----------------------------------------------------------------------
# drl-online
# ----------------------------------------------------------------------


def drl_online(seed: int, n: int, workdir: Path) -> Prepared:
    """One fresh DRL broker that keeps learning through one engine run."""
    from repro.core.baselines import ImmediateSleepPolicy
    from repro.core.config import GlobalTierConfig
    from repro.core.global_tier import DRLGlobalBroker
    from repro.core.state import StateEncoder
    from repro.sim.engine import build_simulation
    from repro.workload.synthetic import (
        SyntheticTraceConfig,
        generate_trace,
        reference_rate,
    )

    trace_ss, agent_ss = np.random.SeedSequence(seed).spawn(2)
    config = dataclasses.replace(
        SyntheticTraceConfig(), n_jobs=n, horizon=n / reference_rate(ONLINE_SERVERS)
    )
    jobs = generate_trace(config, seed=np.random.default_rng(trace_ss))
    broker = DRLGlobalBroker(
        StateEncoder(ONLINE_SERVERS, num_groups=ONLINE_GROUPS),
        GlobalTierConfig(num_groups=ONLINE_GROUPS),
        rng=np.random.default_rng(agent_ss),
    )
    engine = build_simulation(ONLINE_SERVERS, broker, ImmediateSleepPolicy())

    def call() -> list[Cell]:
        result = engine.run(jobs)
        metrics = result.metrics
        return [
            Cell(
                "drl-online",
                offered=len(jobs),
                completed=metrics.n_completed,
                failed=metrics.n_failed,
                energy=result.total_energy_kwh,
                latency=metrics.acc_latency,
                series=_series(metrics.latency_series(), metrics.energy_series()),
            )
        ]

    return Prepared(1, call)


# ----------------------------------------------------------------------
# heuristic-sweep
# ----------------------------------------------------------------------


def heuristic_sweep(seed: int, n: int, workdir: Path) -> Prepared:
    """Every builtin scenario x {round-robin, packing}, serial, journaled."""
    from repro.scenarios import registry
    from repro.scenarios.orchestrator import sweep
    from repro.scenarios.store import ResultStore

    scenarios = [spec.name for spec in registry.all_scenarios()]
    labels = [f"{s} x {system}" for s in scenarios for system in SWEEP_SYSTEMS]
    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))

    def call() -> list[Cell]:
        try:
            report = sweep(
                scenarios,
                SWEEP_SYSTEMS,
                (seed,),
                n_jobs=n,
                workers=1,
                store=ResultStore(store_dir),
                progress=lambda line: None,
            )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        errors = {
            f"{q['scenario']} x {q['system']}": q["error"] for q in report.quarantined
        }
        return [
            _cell_from_result(label, r)
            if r is not None
            else failed_cell(label, f"{label}: quarantined: {errors.get(label)}")
            for label, r in zip(labels, report.results)
        ]

    return Prepared(len(labels), call)


# ----------------------------------------------------------------------
# fed-drl-outage
# ----------------------------------------------------------------------


def fed_drl_outage(seed: int, n: int, workdir: Path) -> Prepared:
    """DRL at both tiers of a federation with site outages and job failures."""
    from repro.scenarios import registry
    from repro.scenarios.orchestrator import run_cell

    spec = dataclasses.replace(registry.get("degraded-federation"), federation="drl")

    def call() -> list[Cell]:
        result = run_cell(spec, "drl-only", n_jobs=n, seed=seed)
        return [_cell_from_result("degraded-federation drl x drl-only", result)]

    return Prepared(1, call)


#: Workload name -> (prepare function, default size).
WORKLOADS: dict[str, tuple[Callable[[int, int, Path], Prepared], int]] = {
    "paper-table1": (paper_table1, TABLE1_JOBS),
    "drl-online": (drl_online, ONLINE_JOBS),
    "heuristic-sweep": (heuristic_sweep, SWEEP_JOBS_PER_CELL),
    "fed-drl-outage": (fed_drl_outage, FED_JOBS),
}


def prepare(name: str, seed: int, workdir: Path, n: int | None = None) -> Prepared:
    """Build workload ``name``'s inputs at its default size (or ``n``)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    fn, default_n = WORKLOADS[name]
    return fn(seed, default_n if n is None else n, workdir)


def run(prepared: Prepared) -> list[Cell]:
    """Make the measured call and check every cell.

    An exception from the program fails every cell of the call, with
    the exception as the problem recorded against each.
    """
    try:
        cells = prepared.call()
    except Exception as exc:  # a failed operation, reported, not raised
        problem = f"{type(exc).__name__}: {exc}"
        return [failed_cell(f"cell {i}", problem) for i in range(prepared.n_cells)]
    for cell in cells:
        cell.check()
    return cells
