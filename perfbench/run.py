"""Benchmark runner: one workload, the whole suite, or a comparison.

One workload for a fixed time (prints one JSON result line last, with
each end-to-end metric's median over the run's children)::

    python3 perfbench/run.py --workload drl-online --seed 0 --seconds 30 --trace 0

The whole suite, every workload 5 times in rounds that alternate the
workload order (writes ``<out>/results.json``, and ``<out>/trace.json``
with ``--trace``)::

    python3 perfbench/run.py [--seed 0] [--trace] [--out DIR]

Two suite results against each other::

    python3 perfbench/run.py compare OLD.json NEW.json

Every measured call runs in a fresh child interpreter
(:mod:`perfbench.child`), one at a time; its times are rescaled to a
quiet host (:func:`derive_metrics`). Metric names, units and bounds
come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.child import REFERENCE_QUIET_S  # noqa: E402
from perfbench.stats import classify, summarize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

#: Fewest untraced calls behind each reported median.
MIN_SAMPLES = 3
#: Untraced calls per workload in a suite run.
REPEATS = 5
#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program could not be set up or run; no result is printed."""


def spawn(workload: str, seed: int, traced: bool, out: Path) -> dict:
    """Run one child to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    # The matrices are small and the box is shared: one BLAS thread
    # keeps timings steady and float summation order fixed.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "perfbench.child", workload, str(seed)]
    cmd += ["1" if traced else "0", str(out)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return derive_metrics(json.loads(lines[-1]), t0, elapsed)


def derive_metrics(report: dict, spawned: float, elapsed: float) -> dict:
    """Add the end-to-end metrics to a child's report.

    ``setup_s`` and ``wall_s`` are rescaled to a quiet host: multiplied
    by the reference computation's quiet time over its mean time in this
    child. Other tenants of a shared host slow the reference along with
    the program, so this takes out much of their effect, while no change
    to the program can move the reference. The measured times stay in
    ``raw_setup_s`` and ``raw_wall_s``.
    """
    scale = REFERENCE_QUIET_S / statistics.fmean(report["ref_s"])
    report["raw_setup_s"] = report.pop("ready") - spawned
    report["raw_wall_s"] = report["wall_s"]
    report["setup_s"] = report["raw_setup_s"] * scale
    report["wall_s"] = report["raw_wall_s"] * scale
    report["elapsed_s"] = elapsed
    report["jobs_per_s"] = report["jobs"] / report["wall_s"]
    report["peak_rss_mb"] = report.pop("rss_kb") / 1024.0
    return report


def summarize_workload(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians, quartiles and checks over one workload's child reports."""
    runs = untraced + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = sorted({r["digest"] for r in runs})
    problems = sorted({p for r in runs for p in r["problems"]})
    if len(digests) > 1:
        problems.append(f"outputs differ between repeats: digests {digests}")
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else None,
        "problems": problems,
        "metrics": {},
    }
    for name, spec in END_TO_END.items():
        values = [r[name] for r in untraced]
        summary["metrics"][name] = {
            "unit": spec["unit"],
            **summarize(values),
            "samples": values,
        }
    summary["raw"] = {
        name: summarize([r[name] for r in untraced])
        for name in ("raw_setup_s", "raw_wall_s")
    }
    if traced:
        layers = {}
        for name, spec in PER_LAYER.items():
            if name == "trace_overhead_pct":
                continue
            values = [r["layers"][name][0] for r in traced]
            layers[name] = statistics.median(values)
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace_overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
        summary["layers"] = layers
    return summary


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path):
    """Spawn children for about ``seconds``; returns (untraced, traced)."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        with_trace = trace and len(traced) < len(untraced)
        report = spawn(workload, seed, with_trace, out)
        (traced if with_trace else untraced).append(report)
        need = 1 if trace else MIN_SAMPLES
        if len(untraced) >= need and (traced or not trace):
            typical = statistics.median(r["elapsed_s"] for r in untraced + traced)
            if time.monotonic() - start + typical > seconds:
                return untraced, traced


def environment() -> dict:
    """Interpreter, library and machine stamp stored with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "git": sha,
    }


def write_trace(out: Path, entries: list[tuple[str, dict]]) -> None:
    """All traced children's spans, one run entry each, as ``trace.json``."""
    runs = [
        {**report["spans"], "run": run_id, "workload": workload}
        for run_id, (workload, report) in enumerate(entries)
    ]
    (out / "trace.json").write_text(json.dumps({"runs": runs}))


def workload_main(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    untraced, traced = measure(args.workload, args.seed, args.seconds, args.trace, out)
    summary = summarize_workload(untraced, traced)
    if args.trace:
        write_trace(out, [(args.workload, r) for r in traced])
        metrics = {
            name: {"value": summary["layers"][name], "unit": spec["unit"]}
            for name, spec in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": m["median"], "unit": m["unit"]}
            for name, m in summary["metrics"].items()
        }
    for problem in summary["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    stamp = {"environment": environment(), "unscaled": summary["raw"]}
    print(json.dumps(stamp), file=sys.stderr)
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def render(results: dict) -> str:
    lines = [f"seed {results['seed']}  " + json.dumps(results["env"])]
    lines.append(
        f"{'workload':<16} {'metric':<12} {'unit':<8} {'median':>12} "
        f"{'q1':>12} {'q3':>12} {'n':>3}"
    )
    for workload, summary in results["workloads"].items():
        rows = [(name, m["unit"], m) for name, m in summary["metrics"].items()]
        rows += [(name, "s", m) for name, m in summary["raw"].items()]
        for name, unit, m in rows:
            lines.append(
                f"{workload:<16} {name:<12} {unit:<8} {m['median']:>12.5g} "
                f"{m['q1']:>12.5g} {m['q3']:>12.5g} {m['n']:>3}"
            )
        lines.append(
            f"{workload:<16} {'error_rate':<12} {'fraction':<8} "
            f"{summary['error_rate']:>12.5g}   ({summary['failed']} of "
            f"{summary['attempted']} cells failed; digest {summary['digest']})"
        )
        for problem in summary["problems"]:
            lines.append(f"{workload:<16} check failed: {problem}")
        for name, value in summary.get("layers", {}).items():
            unit = PER_LAYER[name]["unit"]
            lines.append(f"{workload:<16}   {name:<44} {value:>14.6g} {unit}")
    return "\n".join(lines)


def suite_main(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = environment()
    samples: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for round_ in range(REPEATS):
        order = WORKLOADS if round_ % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            samples[workload].append(spawn(workload, args.seed, False, out))
    traced = {}
    if args.trace:
        traced = {w: spawn(w, args.seed, True, out) for w in WORKLOADS}
    results = {
        "env": env,
        "seed": args.seed,
        "workloads": {
            w: summarize_workload(samples[w], [traced[w]] if traced else [])
            for w in WORKLOADS
        },
    }
    (out / "results.json").write_text(json.dumps(results, indent=1))
    if traced:
        write_trace(out, list(traced.items()))
    print(render(results))
    print(f"results: {out / 'results.json'}")
    correct = all(s["correct"] for s in results["workloads"].values())
    return 0 if correct else 1


def compare(old: dict, new: dict) -> list[dict]:
    """One verdict per (workload, metric) present in both results."""
    rows = []
    for workload, new_summary in new["workloads"].items():
        old_summary = old["workloads"].get(workload)
        if old_summary is None:
            continue
        verdicts = []
        for name, spec in END_TO_END.items():
            o = old_summary["metrics"][name]
            n = new_summary["metrics"][name]
            verdict = classify(
                o["samples"], n["samples"], spec["better"], spec["bound"]
            )
            verdicts.append((name, o["median"], n["median"], verdict))
        old_rate, new_rate = old_summary["error_rate"], new_summary["error_rate"]
        rate_verdict = "worse" if new_rate > old_rate else "same"
        verdicts.append(("error_rate", old_rate, new_rate, rate_verdict))
        old_digest, new_digest = old_summary["digest"], new_summary["digest"]
        digest_verdict = "same" if old_digest == new_digest else "changed"
        verdicts.append(("digest", old_digest, new_digest, digest_verdict))
        keys = ("metric", "old", "new", "verdict")
        rows += [{"workload": workload, **dict(zip(keys, v))} for v in verdicts]
    return rows


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    rows = compare(old, new)
    for row in rows:
        print(
            f"{row['workload']:<16} {row['metric']:<12} {row['old']!s:>20} "
            f"{row['new']!s:>20}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark failed: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        return workload_main(args) if args.workload else suite_main(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
