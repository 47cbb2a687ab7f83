"""Fault-path overhead bench.

The fault runtime promises two things about performance: a run with no
faults configured pays (almost) nothing — zero-fault results are
bit-identical with the engine's bare output — and a heavily-faulted run
(crashes + retries + stragglers, the ``failure-storm`` regime) stays
within a small constant factor of the clean run despite kill/requeue
churn and rerouting.

This bench measures three configurations of the same workload on a
20-server site:

* **bare** — no fault machinery installed at all;
* **inert** — a null :class:`FaultSpec` runtime installed (the hook
  overhead every faulted *scenario* pays on its fault-free cells);
* **storm** — failure-storm-like parameters (crashes, 5% job failures,
  5% stragglers, retry backoff).

Results merge into ``BENCH_hotpath.json`` in the bench output directory
under the ``faults`` key.
The acceptance gates assert bare/inert bit-identity and bound the median
per-round inert hook overhead; ``REPRO_BENCH_FAULT_OVERHEAD`` relaxes
the latter for noisy shared runners.

Scale knob: ``REPRO_BENCH_FAULT_JOBS`` (trace length, default 2000).
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import merge_hotpath, save_artifact
from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.faults.inject import install_faults
from repro.faults.plan import build_site_plan
from repro.faults.spec import FaultSpec
from repro.sim.federation import build_federation
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace
from tests.helpers import interleaved, paired_ratio

FAULT_JOBS = int(os.environ.get("REPRO_BENCH_FAULT_JOBS", "2000"))
MAX_INERT_OVERHEAD = float(os.environ.get("REPRO_BENCH_FAULT_OVERHEAD", "0.25"))

NUM_SERVERS = 20
ROUNDS = 7

STORM = FaultSpec(
    crashes_per_server=1.5,
    crash_recovery_fraction=0.04,
    job_failure_prob=0.05,
    straggler_prob=0.05,
    straggler_factor=3.0,
    max_retries=3,
    retry_backoff_s=60.0,
)


def build_site():
    return build_federation(
        [
            dict(
                name="site",
                num_servers=NUM_SERVERS,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
            )
        ]
    )


def fingerprint(result):
    m = result.sites[0].metrics
    return (
        m.n_arrived,
        m.n_completed,
        m.n_failed,
        m.n_retries,
        m.acc_latency,
        m.total_energy_kwh(),
        result.final_time,
    )


def fault_run(trace, spec, seed):
    """An arm running a fresh site; ``spec=None`` installs no fault runtime."""

    def setup():
        engine = build_site()
        runtime = None
        if spec is not None:
            horizon = max(j.arrival_time for j in trace) + 500.0
            runtime = install_faults(
                engine, [build_site_plan(spec, NUM_SERVERS, horizon, seed)]
            )
        jobs = [j.copy() for j in trace]
        return lambda: (engine.run([jobs]), runtime)

    return setup


def test_bench_fault_overhead(out_dir, bench_seed):
    trace = generate_trace(
        SyntheticTraceConfig(n_jobs=FAULT_JOBS, horizon=FAULT_JOBS * 10.0),
        seed=bench_seed,
    )

    rounds = interleaved(
        {
            "bare": fault_run(trace, None, bench_seed),
            "inert": fault_run(trace, FaultSpec(), bench_seed),
            "storm": fault_run(trace, STORM, bench_seed),
        },
        ROUNDS,
    )
    bare_result, _ = rounds.results["bare"]
    inert_result, inert_rt = rounds.results["inert"]
    storm_result, storm_rt = rounds.results["storm"]

    # Gate 1: the inert runtime changes nothing — bit-identical metrics.
    assert fingerprint(inert_result) == fingerprint(bare_result)
    assert inert_rt.total_crashes == 0
    assert inert_rt.broker_fallbacks == 0

    # Gate 2: the storm conserves jobs — nothing silently dropped.
    m = storm_result.sites[0].metrics
    assert m.n_completed + m.n_failed == FAULT_JOBS

    inert = paired_ratio(rounds.seconds["inert"], rounds.seconds["bare"])
    storm = paired_ratio(rounds.seconds["storm"], rounds.seconds["bare"])

    payload = {
        "jobs": FAULT_JOBS,
        "num_servers": NUM_SERVERS,
        "bare_ms": round(rounds.summary("bare")["median"] * 1e3, 2),
        "inert_ms": round(rounds.summary("inert")["median"] * 1e3, 2),
        "storm_ms": round(rounds.summary("storm")["median"] * 1e3, 2),
        "inert_overhead_pct": {
            key: value if key == "n" else round((value - 1.0) * 100.0, 2)
            for key, value in inert.items()
        },
        "storm_slowdown": {key: round(value, 2) for key, value in storm.items()},
        "storm": {
            "completed": m.n_completed,
            "failed": m.n_failed,
            "retries": m.n_retries,
            "goodput": round(m.goodput, 4),
            "crashes": storm_rt.total_crashes,
            "jobs_killed": storm_rt.total_jobs_killed,
            "stragglers": storm_rt.total_stragglers,
            "availability": round(
                storm_rt.fleet_availability(storm_result.final_time), 4
            ),
        },
    }

    merge_hotpath(out_dir, {"faults": payload})
    save_artifact(out_dir, "BENCH_faults.json", json.dumps(payload, indent=2))

    pct = payload["inert_overhead_pct"]
    assert inert["median"] - 1.0 <= MAX_INERT_OVERHEAD, (
        f"inert fault runtime costs {pct['median']:.1f}% over the bare engine "
        f"in the median of {pct['n']} rounds (quartiles {pct['q1']:.1f}% and "
        f"{pct['q3']:.1f}%; gate {MAX_INERT_OVERHEAD * 100.0:.0f}%); rerun on "
        "a quiet machine or set REPRO_BENCH_FAULT_OVERHEAD"
    )
