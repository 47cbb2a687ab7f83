"""Profile a federated run end to end with ``repro.obs``.

Runs the ``follow-the-sun`` scenario twice — once plain, once inside
``obs.capture()`` — to show the three things the telemetry layer
guarantees:

1. profiling changes *nothing* about the result (the two runs are
   bit-identical on every metric);
2. the span self-times partition the run's wall time, so the report's
   per-phase percentages are real attribution, not samples;
3. the snapshot is a plain JSON document: write it, load it, merge it
   with others (``obs.merge_snapshots``), render it later.

Run from the repository root::

    PYTHONPATH=src python examples/profile_run.py

The same telemetry is available without any code via the CLI::

    PYTHONPATH=src python -m repro scenario run follow-the-sun --profile
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.scenarios.orchestrator import run_cell

N_JOBS = 400


def main() -> None:
    print(f"Running follow-the-sun x round-robin, {N_JOBS} jobs...\n")

    plain = run_cell("follow-the-sun", "round-robin", n_jobs=N_JOBS, seed=0)
    profiled = run_cell(
        "follow-the-sun", "round-robin", n_jobs=N_JOBS, seed=0, profile=True
    )

    # 1. Telemetry never perturbs the simulation: pop the snapshot and
    #    the profiled cell equals the plain one bit for bit.
    snapshot = profiled.pop("telemetry")
    assert profiled == plain, "profiling must not change results"
    print("profiled == plain result: OK (bit-identical)\n")

    # 2. The per-phase breakdown. Self-times partition the run span, so
    #    phase_coverage is the fraction of the run attributed to named
    #    phases (the acceptance bar for federated runs is >= 90%).
    print(obs.render_report(snapshot, top=10))
    print(f"\nphase coverage: {obs.phase_coverage(snapshot):.1%}")

    # Raw pieces, if the rendered table is not what you need:
    counters = snapshot["counters"]
    print(f"fed.decisions: {counters['fed.decisions']}, "
          f"remote-routed: {counters.get('fed.remote_routed', 0)}")
    depth = snapshot["gauges"]["events.queue_depth"]
    print(f"event queue depth: mean {depth['mean']:.1f}, max {depth['max']:.0f}")

    # 3. Snapshots are plain JSON — persist and re-render any time.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.json"
        obs.write_snapshot(snapshot, path)
        again = obs.load_snapshot(path)
        print(f"\nround-tripped through {path.name}: "
              f"{len(again['spans'])} spans intact")


if __name__ == "__main__":
    main()
