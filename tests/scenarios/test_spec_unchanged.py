"""A cell never mutates its spec.

A sweep keys a cell before it runs: the result is journaled under the
key its spec had then, and a training group shares the policy its
training key names. A spec changed while the cell runs (an
``object.__setattr__`` on a frozen field) would journal a result under
a key that no longer describes it. So each builtin scenario's packing
cell, and ``paper-default``'s warm-started ``drl-only`` cell with its
training, run here as journaled one-cell sweeps. ``run_cell`` and
``train_policy`` are wrapped to compare the spec each is handed, before
and after the call: the spec itself, its ``content_dict()`` and the
cell's (or the training's) content key. A sweep hands every task a
pickled copy, so the registry's own spec is compared too, and the
training runs through ``ensure_checkpoint`` (what ``scenario run --warm``
calls) on the registry's spec itself.
"""

import copy
import inspect

import pytest

from repro.scenarios import checkpoints, orchestrator, registry
from repro.scenarios.checkpoints import (
    CheckpointStore,
    ensure_checkpoint,
    training_request,
)
from repro.scenarios.orchestrator import SweepCell, cell_request, sweep
from repro.scenarios.store import ResultStore, content_key

N_JOBS = 60


def cell_key(arguments: dict) -> str:
    cell = SweepCell(arguments["scenario"], arguments["system"], arguments["seed"])
    warm = arguments["checkpoint"] is not None
    return content_key(
        cell_request(cell, arguments["n_jobs"], arguments["protocol"], warm)
    )


def training_key(arguments: dict) -> str:
    return content_key(
        training_request(
            arguments["spec"],
            arguments["n_jobs"],
            arguments["seed"],
            arguments["protocol"],
        )
    )


def snapshot(spec, key: str) -> tuple:
    return copy.deepcopy(spec), spec.content_dict(), key


def watch(monkeypatch, module, name: str, spec_arg: str, key_of) -> list:
    """Wrap ``module.name``; returns each call's two snapshots of its spec."""
    real = getattr(module, name)
    signature = inspect.signature(real)
    calls = []

    def watched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spec = bound.arguments[spec_arg]
        before = snapshot(spec, key_of(bound.arguments))
        result = real(*args, **kwargs)
        after = snapshot(spec, key_of(bound.arguments))
        calls.append((before, after))
        return result

    monkeypatch.setattr(module, name, watched)
    return calls


@pytest.fixture
def cells(monkeypatch):
    return watch(monkeypatch, orchestrator, "run_cell", "scenario", cell_key)


@pytest.fixture
def trainings(monkeypatch):
    return watch(monkeypatch, checkpoints, "train_policy", "spec", training_key)


def one_cell_sweep(spec, system, root):
    return sweep(
        [spec],
        systems=(system,),
        n_jobs=N_JOBS,
        workers=1,
        store=ResultStore(root),
    )


@pytest.mark.parametrize("name", registry.names())
def test_a_packing_cell_leaves_its_spec_unchanged(name, tmp_path, cells):
    spec = registry.get(name)
    before = snapshot(spec, spec.content_key())
    report = one_cell_sweep(spec, "packing", tmp_path)
    assert report.n_computed == 1
    assert [key for (_, _, key), _ in cells] == report.keys
    for before_call, after_call in cells:
        assert after_call == before_call
    assert snapshot(spec, spec.content_key()) == before


def test_a_warm_drl_cell_and_its_training_leave_the_spec_unchanged(
    tmp_path, cells, trainings
):
    spec = registry.get("paper-default")
    before = snapshot(spec, spec.content_key())
    ensure_checkpoint(CheckpointStore(tmp_path / "checkpoints"), spec, N_JOBS)
    report = one_cell_sweep(spec, "drl-only", tmp_path)
    assert report.n_computed == 1
    assert len(trainings) == 1  # by ensure_checkpoint; the sweep loads its blob
    assert [key for (_, _, key), _ in cells] == report.keys
    for before_call, after_call in cells + trainings:
        assert after_call == before_call
    assert snapshot(spec, spec.content_key()) == before
