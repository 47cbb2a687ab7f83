"""Sweep resumability and train-once/evaluate-many orchestration."""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.scenarios.checkpoints as checkpoints
import repro.scenarios.orchestrator as orchestrator
from repro.scenarios.checkpoints import CheckpointStore
from repro.scenarios.orchestrator import sweep
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    WorkloadSpec,
)
from repro.scenarios.store import ResultStore
from tests.helpers import NO_TRAINING

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = ScenarioSpec(
    name="tiny-resume",
    description="4-server resume scenario",
    fleet=FleetSpec(classes=(ServerClassSpec("standard", 4),)),
    workload=WorkloadSpec(n_train_segments=1),
)

#: DRL-cell knobs that skip the expensive training phases; the
#: train-once plumbing (grouping, blobs, warm construction) is identical.
FAST_DRL = dict(n_jobs=60, protocol=NO_TRAINING)


class TestIncrementalJournal:
    def test_completed_cells_survive_a_mid_sweep_crash(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        kwargs = dict(
            scenarios=[TINY],
            systems=("round-robin", "packing", "least-loaded"),
            seeds=(0,),
            n_jobs=60,
            workers=1,
            store=store,
            # Fail-fast, no retries: this test is about the journal
            # surviving a crash, not the quarantine machinery.
            on_error="raise",
            cell_retries=0,
        )
        real = orchestrator.run_cell
        calls = []

        def dying(scenario, system, **kw):
            calls.append(system)
            if len(calls) == 3:
                raise RuntimeError("worker died")
            return real(scenario, system, **kw)

        monkeypatch.setattr(orchestrator, "run_cell", dying)
        with pytest.raises(RuntimeError):
            sweep(**kwargs)
        # The two cells that finished before the crash are journaled.
        assert len(store) == 2

        monkeypatch.setattr(orchestrator, "run_cell", real)
        report = sweep(**kwargs)
        assert (report.n_cached, report.n_computed) == (2, 1)
        assert all(r is not None for r in report.results)

    def test_progress_reports_done_cached_total(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        kwargs = dict(
            scenarios=[TINY], systems=("round-robin", "packing"), seeds=(0,),
            n_jobs=60, workers=1, store=store,
        )
        lines: list[str] = []
        sweep(progress=lines.append, **kwargs)
        assert lines[0] == "# sweep: 2 cells, 0 journaled, 2 to compute"
        assert lines[-1].startswith("# [2/2]")
        lines.clear()
        sweep(progress=lines.append, **kwargs)
        assert lines[0] == "# sweep: 2 cells, 2 journaled, 0 to compute"


def _live_group_members(pgid: int) -> set[int]:
    """Running (non-zombie) processes of process group ``pgid``.

    Reads ``/proc`` where it exists: an exited orphan whose new parent
    never reaps it lingers as a zombie, which holds nothing. Without
    ``/proc``, any member counts.
    """
    proc_root = Path("/proc")
    if not proc_root.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return set()
        return {pgid}
    live = set()
    for stat in proc_root.glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if int(pgrp) == pgid and state != "Z":
            live.add(int(stat.parent.name))
    return live


class TestSigkillResume:
    def test_killed_cli_sweep_resumes_without_recomputing_journaled_cells(
        self, tmp_path
    ):
        """Acceptance: SIGKILL a sweep mid-grid, --resume completes it."""
        cache = tmp_path / "cache"
        grid = dict(
            scenarios="paper-default",
            systems="round-robin,packing,least-loaded,random",
            seeds="0,1",
            jobs=400,
        )
        argv = [
            sys.executable, "-m", "repro", "scenario", "sweep",
            "--scenarios", grid["scenarios"], "--systems", grid["systems"],
            "--seeds", grid["seeds"], "--jobs", str(grid["jobs"]),
            "--workers", "2", "--cache-dir", str(cache),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            argv, cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            # Wait for at least one journaled cell, then SIGKILL mid-sweep.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(list(cache.glob("*/*.json"))) >= 1:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            # The pool workers must not outlive the killed sweep.
            deadline = time.monotonic() + 10
            while _live_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _live_group_members(proc.pid), (
                "pool workers outlived the SIGKILLed sweep"
            )
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=60)

        journaled = len(list(cache.glob("*/*.json")))
        assert journaled >= 1, "the sweep never journaled a completed cell"

        # Resume in-process with the same request: journaled cells must
        # come back as cache hits, only the rest recompute.
        report = sweep(
            scenarios=grid["scenarios"].split(","),
            systems=tuple(grid["systems"].split(",")),
            seeds=tuple(int(s) for s in grid["seeds"].split(",")),
            n_jobs=grid["jobs"],
            workers=2,
            store=ResultStore(cache),
        )
        assert report.n_cached == journaled
        assert report.n_cached + report.n_computed == 8
        assert all(r is not None for r in report.results)


class TestTrainOnce:
    def test_cells_sharing_scenario_and_seed_train_exactly_once(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real = checkpoints.train_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "train_policy", counting)
        store = ResultStore(tmp_path / "cache")
        report = sweep(
            scenarios=[TINY],
            systems=("round-robin", "drl-only", "drl+fixed-30"),
            seeds=(0,),
            workers=1,
            store=store,
            **FAST_DRL,
        )
        assert len(calls) == 1  # two DRL cells, one training
        assert report.n_computed == 3
        assert len(CheckpointStore(store.root / "checkpoints")) == 1

    def test_checkpoint_reused_across_sweeps(self, tmp_path, monkeypatch):
        calls = []
        real = checkpoints.train_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "train_policy", counting)
        store = ResultStore(tmp_path / "cache")
        kwargs = dict(
            scenarios=[TINY], systems=("drl-only",), seeds=(0,),
            workers=1, store=store, **FAST_DRL,
        )
        sweep(**kwargs)
        assert len(calls) == 1
        # Same training key, different evaluation knob: result cache
        # misses, checkpoint hits — no second training.
        sweep(**kwargs | {"protocol": replace(NO_TRAINING, record_every=100)})
        assert len(calls) == 1

    def test_seed_changes_training_group(self, tmp_path, monkeypatch):
        calls = []
        real = checkpoints.train_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "train_policy", counting)
        sweep(
            scenarios=[TINY], systems=("drl-only",), seeds=(0, 1),
            workers=1, store=ResultStore(tmp_path / "cache"), **FAST_DRL,
        )
        assert len(calls) == 2  # one policy per seed

    def test_warm_parallel_matches_serial(self, tmp_path):
        kwargs = dict(
            scenarios=[TINY],
            systems=("round-robin", "drl-only", "drl+fixed-30"),
            seeds=(0,),
            use_cache=False,
            **FAST_DRL,
        )
        serial = sweep(workers=1, **kwargs)
        parallel = sweep(workers=3, **kwargs)
        assert serial.results == parallel.results

    def test_no_warm_start_trains_per_cell(self, tmp_path, monkeypatch):
        calls = []
        real = checkpoints.train_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoints, "train_policy", counting)
        report = sweep(
            scenarios=[TINY], systems=("drl-only", "drl+fixed-30"), seeds=(0,),
            workers=1, store=ResultStore(tmp_path / "cache"),
            warm_start=False, **FAST_DRL,
        )
        assert calls == []  # per-cell training path, no checkpoint phase
        assert report.n_computed == 2

    def test_warm_results_carry_series(self, tmp_path):
        report = sweep(
            scenarios=[TINY], systems=("drl-only",), seeds=(0,),
            workers=1, use_cache=False, **FAST_DRL,
        )
        result = report.results[0]
        assert result["latency_series"], "Fig-8 series missing"
        assert result["energy_series"]
        rows = report.series_rows()
        assert {row["series"] for row in rows} == {"latency", "energy", "cost", "co2"}
        assert all(np.isfinite(row["value"]) for row in rows)
