"""One measured run in a fresh interpreter: set up, call once, report.

``python -m perfbench.child WORKLOAD SEED TRACE WORKDIR`` with the
checkout's ``src`` and root on ``PYTHONPATH`` (``run.py`` spawns it so).
Prints one JSON line: the monotonic time at which the inputs were ready
(the parent subtracts its spawn time to get ``setup_s``), the call's
``wall_s``, the reference computation's time just before and just after
the call, jobs completed, peak RSS, the output digest, the cell counts
and the problems found, plus per-layer metrics and spans when traced.
Exits non-zero, printing no result, if set-up fails.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

#: What :func:`reference_s` takes on a quiet host: about its median on
#: the 2-vCPU Xeon VM the benchmark was written on, at a quiet moment
#: (1st percentile 0.092 s, median 0.100 s). Only a scale: changing it
#: rescales every time reported.
REFERENCE_QUIET_S = 0.099


def reference_s() -> float:
    """Time of a fixed computation that gauges how fast the host is now.

    It mixes interpreter work (dict updates in a loop) with small matrix
    products, the two kinds of work the workloads do, and runs no
    ``repro`` code, so no change to the program can move it. The
    collector is off so that objects the program left behind are not
    collected on the reference's time.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    b = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(480_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        for _ in range(4_800):
            np.tanh(a @ b)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv: list[str]) -> None:
    workload, seed, trace, workdir = argv
    from perfbench import workloads

    report: dict = {}
    if trace == "1":
        from perfbench import tracing

        # Traced from before set-up, so trace generation shows too.
        with tracing.traced() as (tracer, tel):
            prepared = workloads.prepare(workload, int(seed), Path(workdir))
            report["ready"] = time.monotonic()
            ref_before = reference_s()
            t0 = time.perf_counter()
            cells = workloads.run(prepared)
            wall_s = time.perf_counter() - t0
        completed = sum(c.completed for c in cells)
        layers = tracing.layer_metrics(tracer, tel.snapshot(), wall_s, completed)
        report["layers"] = {k: list(v) for k, v in layers.items()}
        report["spans"] = tracer.table(run_id=0)
    else:
        prepared = workloads.prepare(workload, int(seed), Path(workdir))
        report["ready"] = time.monotonic()
        ref_before = reference_s()
        t0 = time.perf_counter()
        cells = workloads.run(prepared)
        wall_s = time.perf_counter() - t0
    problems = [p for c in cells for p in c.problems]
    report.update(
        ref_s=[ref_before, reference_s()],
        wall_s=wall_s,
        jobs=sum(c.completed for c in cells),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=workloads.digest(cells),
        attempted=prepared.n_cells,
        failed=sum(1 for c in cells if c.problems),
        problems=problems,
    )
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
