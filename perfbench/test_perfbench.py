"""Tests of the benchmark itself: its contract, ``compare`` and tracing.

The workloads run in-process at small sizes, so the whole file takes
well under 30 s.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent

#: Small sizes for in-process calls.
SMALL = {
    "paper-table1": 200,
    "drl-online": 300,
    "heuristic-sweep": 100,
    "fed-drl-outage": 200,
}


def _result(samples: dict[str, list[float]], digest: str = "d") -> dict:
    """A suite result holding only drl-online, with the given samples."""
    metrics = {
        name: {"samples": samples.get(name, [1.0] * 5), "median": 1.0}
        for name in run.END_TO_END
    }
    return {
        "workloads": {
            "drl-online": {"metrics": metrics, "error_rate": 0.0, "digest": digest}
        }
    }


def _verdicts(old: dict, new: dict) -> dict[tuple[str, str], str]:
    return {(r["workload"], r["metric"]): r["verdict"] for r in run.compare(old, new)}


def _flagged(verdicts: dict) -> set:
    return {key for key, verdict in verdicts.items() if verdict != "same"}


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layers = tracing.layer_metrics(tracing.Tracer(), {}, 1.0, 0)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {
        **{name: unit for name, (_, unit) in layers.items()},
        "trace_overhead_pct": "%",
    }
    assert bench["end_to_end"][0]["name"] == "setup_s"
    bounds = [m["bound"] for m in bench["end_to_end"]]
    assert max(bounds) == bounds[0]


def test_compare_identical_samples_flag_nothing():
    samples = {
        "wall_s": [2.0, 2.1, 2.05, 1.98, 2.02],
        "jobs_per_s": [500, 510, 505, 495, 502],
    }
    assert _flagged(_verdicts(_result(samples), _result(samples))) == set()


def test_compare_flags_exactly_the_shifted_metric():
    old = {"jobs_per_s": [500.0, 510.0, 505.0, 495.0, 502.0]}
    new = {"jobs_per_s": [v * 0.7 for v in old["jobs_per_s"]]}
    verdicts = _verdicts(_result(old), _result(new))
    assert _flagged(verdicts) == {("drl-online", "jobs_per_s")}
    assert verdicts["drl-online", "jobs_per_s"] == "worse"


def test_compare_reports_a_wide_spread_as_unresolved():
    old = {"wall_s": [1.0, 1.5, 2.0, 2.5, 3.0]}
    new = {"wall_s": [1.2, 1.7, 2.2, 2.7, 3.2]}
    assert _verdicts(_result(old), _result(new))["drl-online", "wall_s"] == "unresolved"


def test_compare_notes_changed_outputs():
    verdicts = _verdicts(_result({}, digest="a"), _result({}, digest="b"))
    assert verdicts["drl-online", "digest"] == "changed"


def test_times_are_rescaled_by_the_hosts_speed():
    quiet = run.REFERENCE_QUIET_S
    child = {"ready": 10.5, "wall_s": 4.0, "jobs": 100, "rss_kb": 2048}
    # The reference ran at half speed around the call: times are halved.
    slow = {**child, "ref_s": [1.5 * quiet, 2.5 * quiet]}
    report = run.derive_metrics(slow, 10.0, 5.0)
    assert report["raw_setup_s"] == 0.5 and report["raw_wall_s"] == 4.0
    assert report["setup_s"] == pytest.approx(0.25)
    assert report["wall_s"] == pytest.approx(2.0)
    assert report["jobs_per_s"] == pytest.approx(50.0)
    assert report["peak_rss_mb"] == 2.0
    report = run.derive_metrics({**child, "ref_s": [quiet, quiet]}, 10.0, 5.0)
    assert report["wall_s"] == pytest.approx(4.0)


def _traced(name: str, tmp_path: Path):
    with tracing.traced() as (tracer, tel):
        prepared = workloads.prepare(name, 0, tmp_path, n=SMALL[name])
        t0 = time.perf_counter()
        cells = workloads.run(prepared)
        wall_s = time.perf_counter() - t0
    assert all(not c.problems for c in cells), [c.problems for c in cells]
    completed = sum(c.completed for c in cells)
    layers = tracing.layer_metrics(tracer, tel.snapshot(), wall_s, completed)
    calls = collections.Counter(tracer.names[i] for i in tracer.name)
    return calls, {k: v for k, (v, _) in layers.items()}


#: Boundaries each workload must reach, and boundaries it must bypass.
#: (``workload.read_google_task_events`` is left out: the parsed replay
#: trace is cached per process, so an earlier test may have parsed it.)
EXERCISED = {
    "paper-table1": {
        "core.offline_pretrain",
        "core.predictor_fit",
        "core.predictor_predict",
        "core.local_on_idle",
        "nn.lstm_fit",
        "nn.lstm_predict",
        "rl.smdp_update",
        "harness.train_global_prototype",
        "harness.run_system",
    },
    "drl-online": {
        "core.select_server",
        "core.encode",
        "core.q_values",
        "core.train_minibatch",
        "core.qnet_train_step",
        "nn.optim_step",
        "rl.replay_push",
        "rl.replay_sample",
        "sim.engine_run",
    },
    "heuristic-sweep": {
        "scenarios.sweep",
        "scenarios.run_cell",
        "scenarios.store_put",
        "workload.build_traces",
        "core.select_site",
        "sim.engine_run",
    },
    "fed-drl-outage": {
        "core.select_site",
        "core.state_views",
        "core.select_server",
        "scenarios.run_cell",
    },
}
BYPASSED = {
    "paper-table1": {"core.state_views", "core.select_site", "scenarios.run_cell"},
    "drl-online": {
        "nn.lstm_fit",
        "nn.lstm_predict",
        "core.predictor_fit",
        "core.predictor_predict",
        "core.local_on_idle",
        "core.state_views",
        "core.select_site",
        "rl.smdp_update",
    },
    "heuristic-sweep": {
        "core.state_views",
        "core.select_server",
        "core.encode",
        "nn.optim_step",
        "nn.lstm_fit",
        "rl.replay_push",
    },
    "fed-drl-outage": {"nn.lstm_fit", "core.predictor_predict", "core.local_on_idle"},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_boundary_fires_where_declared(name, tmp_path):
    calls, layers = _traced(name, tmp_path)
    assert {b for b in EXERCISED[name] if calls[b] == 0} == set()
    assert {b for b in BYPASSED[name] if calls[b] > 0} == set()
    if name == "fed-drl-outage":
        # DRL decides at both tiers; faults force retries.
        assert layers["core.select_server.fed.calls"] > 0
        assert layers["core.select_server.site.calls"] > 0
        assert layers["faults.retries"] > 0
        assert 0.0 < layers["faults.goodput"] < 1.0
    if name == "drl-online":
        assert layers["core.select_server.fed.calls"] == 0
        assert layers["core.select_server.site.calls"] == SMALL[name]


def test_traced_call_restores_the_program():
    from repro.core.state import StateEncoder
    from repro.obs import telemetry as obs

    original = StateEncoder.encode
    with tracing.traced():
        assert StateEncoder.encode is not original
    assert StateEncoder.encode is original
    assert obs.active() is None


def _jobs_per_s(tmp_path: Path) -> float:
    prepared = workloads.prepare("drl-online", 0, tmp_path, n=500)
    t0 = time.perf_counter()
    (cell,) = workloads.run(prepared)
    return cell.completed / (time.perf_counter() - t0)


#: Delay injected per decision epoch. A 100 us sleep cuts drl-online
#: jobs_per_s by only ~28%, too close to its 25% bound to flag reliably.
DELAY_S = 300e-6


def test_injected_delay_shows_in_its_layer_and_is_flagged(tmp_path, monkeypatch):
    from repro.core.state import StateEncoder

    original = StateEncoder.encode

    def slow_encode(self, cluster, job):
        time.sleep(DELAY_S)
        return original(self, cluster, job)

    _jobs_per_s(tmp_path)  # warm caches and lazy imports
    # "unresolved" means a burst of machine noise widened a quartile
    # range past the bound; measure again rather than judge on it.
    for _ in range(3):
        base, slow = [], []
        for _ in range(7):
            base.append(_jobs_per_s(tmp_path))
            monkeypatch.setattr(StateEncoder, "encode", slow_encode)
            slow.append(_jobs_per_s(tmp_path))
            monkeypatch.setattr(StateEncoder, "encode", original)
        old, new = _result({"jobs_per_s": base}), _result({"jobs_per_s": slow})
        verdict = _verdicts(old, new)["drl-online", "jobs_per_s"]
        if verdict != "unresolved":
            break
    assert verdict == "worse", (base, slow)

    _, clean = _traced("drl-online", tmp_path)
    monkeypatch.setattr(StateEncoder, "encode", slow_encode)
    _, delayed = _traced("drl-online", tmp_path)
    rise_us = delayed["core.encode.mean_us"] - clean["core.encode.mean_us"]
    assert rise_us > DELAY_S * 0.9e6


def _bench_env() -> dict:
    """The caller's environment without PYTHONPATH: the runner sets its own."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def test_runner_prints_every_declared_per_layer_metric(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drl-online", "--seed", "0"]
        + ["--seconds", "1", "--trace", "1", "--out", str(out)],
        cwd=ROOT,
        env=_bench_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert list(result["metrics"]) == list(run.PER_LAYER)
    trace = json.loads((out / "trace.json").read_text())
    (entry,) = trace["runs"]
    assert entry["workload"] == "drl-online"
    assert len(entry["start"]) == len(entry["end"]) == len(entry["parent"]) > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drl-online", "--seed", "0"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=_bench_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
