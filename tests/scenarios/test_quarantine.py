"""Sweep resilience: retries, quarantine, timeouts, pool respawn."""

import json
import os
import signal
import time

import pytest

import repro.scenarios.orchestrator as orchestrator
from repro.scenarios.orchestrator import CHAOS_POISON_ENV, sweep
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    WorkloadSpec,
)
from repro.scenarios.store import QUARANTINE_FILE, ResultStore
from tests.helpers import NO_TRAINING

TINY = ScenarioSpec(
    name="tiny-quarantine",
    description="4-server quarantine scenario",
    fleet=FleetSpec(classes=(ServerClassSpec("standard", 4),)),
    workload=WorkloadSpec(n_train_segments=1),
)


def base_kwargs(store, **extra):
    kwargs = dict(
        scenarios=[TINY],
        systems=("round-robin", "packing", "least-loaded"),
        seeds=(0,),
        n_jobs=60,
        workers=1,
        store=store,
        cell_retries=0,
    )
    kwargs.update(extra)
    return kwargs


class TestQuarantine:
    # At two workers the patched run_cell reaches the forked pool workers:
    # _execute_cell looks it up at call time.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_cell_is_quarantined_and_sweep_continues(
        self, tmp_path, monkeypatch, workers
    ):
        store = ResultStore(tmp_path / "cache")
        real = orchestrator.run_cell

        def flaky(scenario, system, **kw):
            if system == "packing":
                raise RuntimeError("poisoned cell")
            return real(scenario, system, **kw)

        monkeypatch.setattr(orchestrator, "run_cell", flaky)
        report = sweep(**base_kwargs(store, workers=workers))
        assert report.n_quarantined == 1
        record = report.quarantined[0]
        assert record["system"] == "packing"
        assert record["stage"] == "evaluate"
        assert "RuntimeError" in record["error"]
        # The other two cells completed and journaled; the quarantined
        # slot is None and aggregation skips it.
        assert sum(r is not None for r in report.results) == 2
        assert len(store) == 2
        assert {row["system"] for row in report.rows()} == {
            "round-robin",
            "least-loaded",
        }
        # The structured journal landed beside the cell records.
        lines = (store.root / QUARANTINE_FILE).read_text().splitlines()
        assert [json.loads(line) for line in lines] == [record]

    def test_quarantined_cell_recomputes_on_next_sweep(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "cache")
        real = orchestrator.run_cell

        def flaky(scenario, system, **kw):
            if system == "packing":
                raise RuntimeError("transient")
            return real(scenario, system, **kw)

        monkeypatch.setattr(orchestrator, "run_cell", flaky)
        sweep(**base_kwargs(store))
        monkeypatch.setattr(orchestrator, "run_cell", real)
        report = sweep(**base_kwargs(store))
        assert report.n_quarantined == 0
        assert (report.n_cached, report.n_computed) == (2, 1)
        assert all(r is not None for r in report.results)

    def test_retry_rescues_a_transient_failure(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        real = orchestrator.run_cell
        failures = {"packing": 1}  # fail the first attempt only

        def transient(scenario, system, **kw):
            if failures.get(system, 0) > 0:
                failures[system] -= 1
                raise RuntimeError("transient blip")
            return real(scenario, system, **kw)

        monkeypatch.setattr(orchestrator, "run_cell", transient)
        monkeypatch.setattr(orchestrator, "_RETRY_BACKOFF_S", 0.01)
        report = sweep(**base_kwargs(store, cell_retries=1))
        assert report.n_quarantined == 0
        assert all(r is not None for r in report.results)

    def test_on_error_raise_fails_fast_after_retries(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "cache")
        attempts = []

        def broken(scenario, system, **kw):
            attempts.append(system)
            raise RuntimeError("permanent")

        monkeypatch.setattr(orchestrator, "run_cell", broken)
        monkeypatch.setattr(orchestrator, "_RETRY_BACKOFF_S", 0.01)
        with pytest.raises(RuntimeError, match="permanent"):
            sweep(
                **base_kwargs(store, cell_retries=2, on_error="raise"),
            )
        assert len(attempts) == 3  # 1 try + 2 retries, then raise

    def test_bad_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            sweep(
                scenarios=[TINY], systems=("round-robin",), use_cache=False,
                on_error="explode",
            )

    def test_failed_training_quarantines_its_group(
        self, tmp_path, monkeypatch
    ):
        def no_train(args):
            raise RuntimeError("training diverged")

        monkeypatch.setattr(orchestrator, "_train_policy_task", no_train)
        store = ResultStore(tmp_path / "cache")
        report = sweep(
            scenarios=[TINY],
            systems=("round-robin", "drl-only"),
            seeds=(0,),
            workers=1,
            store=store,
            cell_retries=0,
            n_jobs=60,
            protocol=NO_TRAINING,
        )
        # The baseline cell computed; the DRL cell fell with its training.
        stages = {q["stage"] for q in report.quarantined}
        assert "train" in stages
        systems = {
            r["system"] for r in report.results if r is not None
        }
        assert systems == {"round-robin"}


class TestChaosPoison:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_cell_quarantines_via_env(self, tmp_path, monkeypatch, workers):
        monkeypatch.setenv(
            CHAOS_POISON_ENV, f"{TINY.name}:packing:0"
        )
        store = ResultStore(tmp_path / "cache")
        report = sweep(**base_kwargs(store, workers=workers))
        assert report.n_quarantined == 1
        assert report.quarantined[0]["system"] == "packing"
        assert (store.root / QUARANTINE_FILE).exists()

    def test_unpoisoned_cells_unaffected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_POISON_ENV, "other-scenario:packing:0")
        store = ResultStore(tmp_path / "cache")
        report = sweep(**base_kwargs(store))
        assert report.n_quarantined == 0


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
)
class TestCellTimeout:
    def test_overrunning_cell_times_out_and_quarantines(
        self, tmp_path, monkeypatch
    ):
        def wedged(scenario, system, **kw):
            time.sleep(30.0)
            raise AssertionError("unreachable")

        monkeypatch.setattr(orchestrator, "run_cell", wedged)
        store = ResultStore(tmp_path / "cache")
        start = time.monotonic()
        report = sweep(
            **base_kwargs(
                store, systems=("round-robin",), cell_timeout=0.2
            )
        )
        assert time.monotonic() - start < 10.0
        assert report.n_quarantined == 1
        assert "CellTimeout" in report.quarantined[0]["error"]


class TestPoolRespawn:
    def test_sigkilled_worker_respawns_pool_and_completes(
        self, tmp_path, monkeypatch
    ):
        """A worker dying mid-cell breaks the pool; the sweep recovers."""
        real = orchestrator.run_cell
        marker = tmp_path / "killed-once"

        def suicidal(scenario, system, **kw):
            if system == "packing" and not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(scenario, system, **kw)

        monkeypatch.setattr(orchestrator, "run_cell", suicidal)
        store = ResultStore(tmp_path / "cache")
        report = sweep(**base_kwargs(store, workers=2))
        assert marker.exists(), "the chaos worker never ran"
        assert report.n_quarantined == 0
        assert all(r is not None for r in report.results)
        assert len(store) == 3

    def test_repeatedly_breaking_pool_gives_up(self, tmp_path, monkeypatch):
        def always_dies(scenario, system, **kw):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(orchestrator, "run_cell", always_dies)
        monkeypatch.setattr(orchestrator, "_MAX_POOL_RESPAWNS", 1)
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="pool broke"):
            sweep(**base_kwargs(store, workers=2))
