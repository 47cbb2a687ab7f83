"""Replay a recorded Google-format trace with electricity accounting.

Three stops:

1. replay the bundled Google task-events fixture through two systems and
   compare energy, cost, and CO₂ under a time-of-use tariff;
2. show how a CSV-driven carbon curve changes the *emissions* ranking
   without touching the energy numbers;
3. point the same machinery at your own trace files (real
   clusterdata-2011 part files drop straight in).

Run from the repository root::

    PYTHONPATH=src python examples/trace_replay.py
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.harness import SWEEP_PROTOCOL
from repro.scenarios import registry
from repro.scenarios.orchestrator import run_cell
from repro.scenarios.specs import TraceReplaySpec
from repro.sim.power import TariffModel

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
TRACE = FIXTURE / "google_task_events_small.csv"


#: The scenario sweep's protocol, sampling series every 50 completions.
PROTOCOL = replace(SWEEP_PROTOCOL, record_every=50)


def evaluate(spec, system_name: str, n_jobs: int = 80) -> dict:
    return run_cell(spec, system_name, n_jobs=n_jobs, seed=0, protocol=PROTOCOL)


def main() -> None:
    # 1. The builtin replay scenario, re-pointed at the fixture by
    #    absolute path (the registered spec uses the repo-relative one)
    #    and billed under a 4x evening-peak tariff.
    spec = registry.get("google-replay")
    spec = replace(
        spec,
        workload=replace(
            spec.workload,
            replay=replace(spec.workload.replay, paths=(str(TRACE),)),
        ),
        tariff=TariffModel.time_of_use(16, 21, 0.32, 0.08),
    )
    print(f"replaying {TRACE.name}: "
          f"{len(spec.workload.replay.load_jobs())} usable jobs")
    for name in ("round-robin", "packing"):
        result = evaluate(spec, name)
        print(f"  {name:12s} energy {result['energy_kwh']:6.2f} kWh   "
              f"cost ${result['cost_usd']:5.2f}   "
              f"CO2 {result['co2_kg']:6.2f} kg   "
              f"mean latency {result['mean_latency_s']:7.1f} s")

    # 2. Same jobs, same joules — a grid carbon curve only re-weights
    #    *when* they were drawn. Write a curve, load it, re-bill.
    curve = FIXTURE.parent.parent / ".repro-cache"
    curve.mkdir(exist_ok=True)
    curve_csv = curve / "example_carbon_curve.csv"
    curve_csv.write_text(
        "time_s,carbon_g_per_kwh\n0,150\n21600,380\n61200,550\n79200,200\n"
    )
    green = replace(spec, tariff=TariffModel.from_csv(curve_csv))
    result = evaluate(green, "packing")
    print(f"under the CSV carbon curve, packing emits {result['co2_kg']:.2f} kg "
          f"for the same {result['energy_kwh']:.2f} kWh")

    # 3. Your own traces: globs work, shards of the real trace replay in
    #    lexical order, and time_compression packs a long recording into
    #    a denser experiment.
    custom = TraceReplaySpec(
        paths=("/data/clusterdata-2011-2/task_events/part-*.csv",),
        time_compression=4.0,
        split="head",
    )
    print(f"(swap in real data via {custom.paths[0]!r} — or the CLI: "
          "`scenario run --name google-replay --trace <files>`)")


if __name__ == "__main__":
    main()
