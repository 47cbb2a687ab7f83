"""The perturbation wrapper, ``benchmarks/perturbed.py``.

The determinism guard (``tests/test_determinism.py``) and CI's
output-identity step see a dependence on process state only if the
wrapper really moves that state and then runs its target as Python
would: every clock read later by the offset, in its own type; both
global generators seeded before the target runs and before anything
imports ``repro``; the target as ``__main__`` with its own arguments,
its own ``sys.path[0]`` and its own exit status.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.perturbed import CLOCKS, offset_clocks, parse_args

ROOT = Path(__file__).resolve().parents[1]
WRAPPER = ROOT / "benchmarks" / "perturbed.py"

OFFSET_S = 1e9

#: Prints what a target sees of how it was run, one item a line.
PROBE = """\
import random, sys, time
from time import perf_counter
import numpy as np
print(__name__)
print(repr(sys.argv[1:]))
print(sys.path[0])
print(repr(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
print(random.random(), np.random.random())
print(time.time(), perf_counter())
"""


@pytest.fixture
def restored_clocks(monkeypatch):
    """Put every clock the wrapper moves back as it was after the test."""
    for name in CLOCKS:
        for form in (name, f"{name}_ns"):
            monkeypatch.setattr(time, form, getattr(time, form))


def wrap(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """The wrapper run with ``args``, with ``repro`` importable."""
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(WRAPPER), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def probed(run: subprocess.CompletedProcess) -> list[str]:
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


@pytest.mark.parametrize("name", [*CLOCKS, *(f"{name}_ns" for name in CLOCKS)])
def test_an_offset_moves_each_clock_and_keeps_its_type(restored_clocks, name):
    real = getattr(time, name)
    scale = 10**9 if name.endswith("_ns") else 1
    offset_clocks(OFFSET_S)
    moved = getattr(time, name)()
    assert isinstance(moved, type(real()))
    assert abs(moved - OFFSET_S * scale - real()) < scale


def test_an_offset_leaves_elapsed_time_unchanged(restored_clocks):
    offset_clocks(OFFSET_S)
    start = time.monotonic()
    time.sleep(0.01)
    assert 0.01 <= time.monotonic() - start < 1.0


@pytest.mark.parametrize(
    "argv, wrapper_seed, target",
    [
        (["x.py", "--seed", "1"], 0, ["x.py", "--seed", "1"]),
        (["--seed", "7", "x.py", "-m", "y"], 7, ["x.py", "-m", "y"]),
        (["--seed", "7", "-m", "mod", "--seed", "1", "-m", "y"], 7, None),
    ],
    ids=["script", "options-then-script", "options-then-module"],
)
def test_options_after_the_target_are_the_targets(
    monkeypatch, argv, wrapper_seed, target
):
    monkeypatch.setattr(sys, "argv", ["perturbed.py", *argv])
    args = parse_args()
    assert args.seed == wrapper_seed
    if target is None:
        assert args.module == ["mod", "--seed", "1", "-m", "y"]
    else:
        assert args.module is None and args.target == target


@pytest.mark.parametrize(
    "argv", [[], ["--seed", "3"], ["-m"]], ids=["nothing", "options-only", "bare-m"]
)
def test_a_target_is_required(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["perturbed.py", *argv])
    with pytest.raises(SystemExit) as raised:
        parse_args()
    assert raised.value.code == 2
    assert "name a SCRIPT or a -m MODULE" in capsys.readouterr().err


def test_a_script_runs_as_main_with_its_argv_and_its_directory(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "probe.py").write_text(PROBE)
    lines = probed(wrap("sub/probe.py", "--seed", "5", "-m", "x", cwd=tmp_path))
    assert lines[:4] == [
        "__main__",
        repr(["--seed", "5", "-m", "x"]),
        str(tmp_path / "sub"),
        "[]",
    ]


def test_a_module_runs_as_main_with_its_argv_and_the_working_directory(tmp_path):
    (tmp_path / "probe.py").write_text(PROBE)
    lines = probed(wrap("-m", "probe", "--seed", "5", "-m", "x", cwd=tmp_path))
    assert lines[:4] == [
        "__main__",
        repr(["--seed", "5", "-m", "x"]),
        str(tmp_path),
        "[]",
    ]


@pytest.mark.parametrize("mode", ["script", "module"])
def test_the_target_draws_from_the_seeded_generators_on_moved_clocks(
    tmp_path, mode
):
    (tmp_path / "probe.py").write_text(PROBE)
    target = ["probe.py"] if mode == "script" else ["-m", "probe"]
    options = ["--seed", "99", "--clock-offset", repr(OFFSET_S)]
    now = time.time(), time.perf_counter()
    lines = probed(wrap(*options, *target, cwd=tmp_path))
    draws = [random.Random(99).random(), np.random.RandomState(99).random()]
    assert [float(x) for x in lines[4].split()] == draws
    moved = [float(x) - start for x, start in zip(lines[5].split(), now)]
    assert all(abs(step - OFFSET_S) < 60.0 for step in moved), moved


def test_the_wrapper_exits_with_its_targets_status(tmp_path):
    (tmp_path / "fails.py").write_text("raise SystemExit(3)\n")
    assert wrap("fails.py", cwd=tmp_path).returncode == 3
