"""One seed, one result, in every process: the determinism guard.

Every output of this reproduction is a function of its seed, so it must
not move with anything else a process holds. Two child processes run
``benchmarks/training_digest.py`` at the same time, each with one BLAS
thread, through ``benchmarks/perturbed.py``:

* plain: ``PYTHONHASHSEED=0``, global generators seeded with 1, clocks
  as they are;
* perturbed: ``PYTHONHASHSEED=4242``, global generators seeded with 99,
  clocks 1e9 s later.

Every line the two print must match. A draw from the stdlib or numpy
global generator, a clock read or an iteration over a set of strings
whose order reaches a result on a path the digest runs (three trainings,
every builtin scenario's streams and packing cell, Table I's traces and
one run of each named system) fails it. Both sides are fixed, so the
verdict is too. What it cannot see is listed in
``benchmarks/perturbed.py``.

The digest runs its cells under ``packing`` alone. So every builtin
scenario's cell under each other heuristic, and ``paper-default``'s
``drl-only`` and ``hierarchical`` cells (which train in the cell), run
here twice in this process: once with the plain side's global seeds and
clocks, once with the perturbed side's (all but the hash seed, which a
running interpreter cannot change). Every field of the two results must
match, and a failure names the cell and the fields that moved.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.perturbed import CLOCKS, offset_clocks
from repro.scenarios import registry, run_cell

ROOT = Path(__file__).resolve().parents[1]
WRAPPER = ROOT / "benchmarks" / "perturbed.py"
DIGEST = ROOT / "benchmarks" / "training_digest.py"

#: (PYTHONHASHSEED, global seed, clock offset in seconds) of each side.
PLAIN = ("0", 1, 0.0)
PERTURBED = ("4242", 99, 1e9)

#: Generous: both children together take about 5 s on a 2-vCPU host.
TIMEOUT_S = 300


def start(script: Path, side: tuple) -> subprocess.Popen:
    """``script`` under the wrapper, with one side's settings."""
    hash_seed, seed, offset = side
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": path,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    command = [sys.executable, str(WRAPPER), "--seed", str(seed)]
    command += ["--clock-offset", repr(offset), str(script)]
    return subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_both(script: Path) -> list[list[str]]:
    """The stdout lines of ``script`` on the plain and the perturbed side."""
    with start(script, PLAIN) as plain, start(script, PERTURBED) as perturbed:
        children = (plain, perturbed)
        try:
            outputs = [child.communicate(timeout=TIMEOUT_S) for child in children]
        except subprocess.TimeoutExpired:
            for child in children:
                child.kill()
            raise
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    return [out.splitlines() for out, _ in outputs]


def test_each_side_gets_its_hash_seed_generators_and_clocks(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(
        "import random, time\n"
        "from time import perf_counter\n"
        "import numpy as np\n"
        "print(hash('repro'))\n"
        "print(random.random(), np.random.random())\n"
        "print(time.time(), time.monotonic(), perf_counter(), time.time_ns() / 1e9)\n"
    )
    plain, perturbed = run_both(script)
    assert plain[0] != perturbed[0]
    for side, (_, seed, _) in ((plain, PLAIN), (perturbed, PERTURBED)):
        draws = [random.Random(seed).random(), np.random.RandomState(seed).random()]
        assert [float(x) for x in side[1].split()] == draws
    moved = [
        float(b) - float(a) for a, b in zip(plain[2].split(), perturbed[2].split())
    ]
    assert all(abs(step - PERTURBED[2]) < 60.0 for step in moved), moved


def test_the_training_digest_is_unmoved_by_process_state():
    plain, perturbed = run_both(DIGEST)
    labels = [line.split()[0] for line in plain]
    assert labels, "the digest printed nothing"
    assert [line.split()[0] for line in perturbed] == labels
    moved = [label for label, a, b in zip(labels, plain, perturbed) if a != b]
    assert moved == [], f"lines that moved with process state: {moved}"


#: The heuristic systems the digest runs in no cell.
HEURISTICS = ("round-robin", "random", "least-loaded")

#: (scenario, system) of each cell run in-process.
CELLS = [
    *((name, system) for name in registry.names() for system in HEURISTICS),
    ("paper-default", "drl-only"),
    ("paper-default", "hierarchical"),
]


@pytest.fixture
def global_generators():
    """Put both global generators back as they were after the test."""
    states = random.getstate(), np.random.get_state()
    yield
    random.setstate(states[0])
    np.random.set_state(states[1])


def run_in_process(monkeypatch, scenario: str, system: str, side: tuple) -> dict:
    """Each field of a cell's result, as JSON, under one side's seeds and clocks."""
    _, seed, offset = side
    n_jobs = 120 if system in HEURISTICS else 60
    random.seed(seed)
    np.random.seed(seed)
    with monkeypatch.context() as patch:
        for name in CLOCKS:
            for form in (name, f"{name}_ns"):
                patch.setattr(time, form, getattr(time, form))
        offset_clocks(offset)
        result = run_cell(scenario, system, n_jobs=n_jobs, seed=0)
    return {field: json.dumps(value, sort_keys=True) for field, value in result.items()}


@pytest.mark.parametrize(
    "scenario, system", CELLS, ids=[f"{name}/{system}" for name, system in CELLS]
)
def test_a_cell_is_unmoved_by_the_global_generators_and_clocks(
    monkeypatch, global_generators, scenario, system
):
    plain = run_in_process(monkeypatch, scenario, system, PLAIN)
    perturbed = run_in_process(monkeypatch, scenario, system, PERTURBED)
    assert plain.keys() == perturbed.keys()
    moved = [field for field in plain if plain[field] != perturbed[field]]
    assert moved == [], f"fields that moved with process state: {moved}"
