"""Shared configuration for the benchmark harness.

Every table and figure of the paper's evaluation has a bench module here.
Scale knobs (environment variables):

* ``REPRO_BENCH_JOBS`` — evaluation-trace length (default 3000; the paper
  uses 95 000 — set that for a full-scale run, it takes tens of minutes).
* ``REPRO_BENCH_SEED`` — workload/agent seed (default 0).
* ``REPRO_BENCH_OUT`` — directory for rendered tables/CSV artifacts
  (default: a fresh temporary directory for each pytest run, so tests
  leave the tree clean; ``REPRO_BENCH_OUT=benchmarks/results``
  refreshes the committed copies).

Benchmarks print the paper-style tables to stdout (run pytest with ``-s``
to see them) and always write them to the output directory.

Every timing gate reads the median per-round ratio of the compared arms
over the alternating-order rounds of ``tests.helpers.interleaved``, and
its artifact records the quartiles and round count next to it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "3000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
OUT_ENV = os.environ.get("REPRO_BENCH_OUT")


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    return BENCH_JOBS


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


@pytest.fixture(scope="session")
def table1_results(bench_jobs, bench_seed) -> dict:
    """Table I's protocol at the bench size, run once per session.

    ``run_table1``'s results by cluster size and system: Table I reads
    its rows from them, Figs. 8 and 9 their M = 30 and M = 40 series.
    """
    from repro.harness.table1 import run_table1

    return run_table1(n_jobs=bench_jobs, cluster_sizes=(30, 40), seed=bench_seed)


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory) -> Path:
    if not OUT_ENV:
        return tmp_path_factory.mktemp("bench-results")
    path = Path(OUT_ENV)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_artifact(out_dir: Path, name: str, text: str) -> None:
    """Write a rendered table/CSV and echo it to stdout."""
    path = out_dir / name
    path.write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def merge_hotpath(out_dir: Path, payload: dict) -> None:
    """Merge ``payload``'s top-level keys into ``<out_dir>/BENCH_hotpath.json``.

    The perf trajectory file collects the keys of several benches.
    """
    try:
        merged = json.loads((out_dir / "BENCH_hotpath.json").read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(payload)
    save_artifact(out_dir, "BENCH_hotpath.json", json.dumps(merged, indent=2))
