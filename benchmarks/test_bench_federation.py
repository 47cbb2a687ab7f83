"""Experiment F1 — federation-dispatch overhead microbenchmark.

The federation refactor routes *every* simulation — single-cluster runs
included — through :class:`~repro.sim.federation.FederationEngine`, and
multi-site runs add a federation-tier broker call per arrival. This
bench pins down what that costs:

* single-cluster dispatch (30 servers, round-robin, always-on) — the
  baseline the refactor must not regress;
* a federation of three 10-server sites under each federation policy
  (home / least-loaded / price-greedy), same total fleet, same offered
  load, measured as wall-clock per completed job.

Results merge into ``BENCH_hotpath.json`` (the perf trajectory file) in
the bench output directory under the ``"federation"`` key, alongside the
decision-epoch numbers.
The acceptance gate bounds the *home-routed* federation's per-job
overhead over the single cluster — pure engine tax, no broker — at
``REPRO_BENCH_FED_MAX_OVERHEAD`` (default 1.6x; policy brokers are
reported but ungated, their work scales with what they inspect).

A second, telemetry-instrumented pass decomposes each policy's per-job
cost into the engine's phases (broker decision vs state-view
aggregation vs settle/dispatch accounting, per-phase *self* µs/job via
:mod:`repro.obs`) under ``federation.phase_us`` — including the DRL
dispatcher, whose ``fed.state_view`` and ``qnet.train_step`` phases are
invisible to the end-to-end numbers above.

Scale knob: ``REPRO_BENCH_FED_JOBS`` (trace length, default 1500).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import merge_hotpath, save_artifact
from repro.core.baselines import AlwaysOnPolicy, RoundRobinBroker
from repro.core.federation import make_federation_broker
from repro.obs import telemetry as obs
from repro.sim.engine import build_simulation
from repro.sim.federation import build_federation
from repro.sim.power import TariffModel
from repro.workload.mixtures import correlated_traces
from repro.workload.synthetic import SyntheticTraceConfig, generate_trace

FED_JOBS = int(os.environ.get("REPRO_BENCH_FED_JOBS", "1500"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_FED_MAX_OVERHEAD", "1.6"))

M, SITES = 30, 3
PER_SITE = M // SITES
HORIZON = FED_JOBS * 14.0

TOU = TariffModel.time_of_use(
    peak_start_hour=16.0, peak_end_hour=21.0, peak_price=0.32, offpeak_price=0.08
)


def timed_run(build, run, reps: int = 3) -> float:
    """Best-of-reps wall seconds for build-and-run (fresh engine each rep)."""
    best = float("inf")
    for _ in range(reps):
        engine, streams = build()
        t0 = time.perf_counter()
        run(engine, streams)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def traces(bench_seed):
    single = generate_trace(
        SyntheticTraceConfig(n_jobs=FED_JOBS, horizon=HORIZON), seed=bench_seed
    )
    per_site = correlated_traces(
        [(SyntheticTraceConfig(n_jobs=FED_JOBS, horizon=HORIZON), FED_JOBS // SITES)]
        * SITES,
        horizon=HORIZON,
        seed=bench_seed,
        coupling=1.0,
    )
    # Unique IDs fleet-wide (per-site traces each number from zero).
    offset = 0
    for stream in per_site:
        for job in stream:
            job.job_id += offset
        offset += len(stream)
    return single, per_site


def build_single(trace):
    engine = build_simulation(
        M, RoundRobinBroker(), AlwaysOnPolicy(), initially_on=True
    )
    return engine, [job.copy() for job in trace]


def build_fed(per_site, policy):
    engine = build_federation(
        [
            dict(
                name=f"site{i}",
                num_servers=PER_SITE,
                broker=RoundRobinBroker(),
                policies=AlwaysOnPolicy(),
                initially_on=True,
                tariff=TOU.shifted(i * 8 * 3600.0),
            )
            for i in range(SITES)
        ],
        broker=make_federation_broker(policy, SITES),
    )
    return engine, [[job.copy() for job in stream] for stream in per_site]


def phase_breakdown(per_site, policy: str) -> dict[str, float]:
    """Per-phase *self* microseconds per job for one profiled run."""
    engine, streams = build_fed(per_site, policy)
    n_jobs = sum(len(stream) for stream in streams)
    with obs.capture() as tel:
        engine.run(streams)
    snapshot = tel.snapshot()
    return {
        name: round(stat["self_s"] / n_jobs * 1e6, 3)
        for name, stat in snapshot["spans"].items()
    }


def test_bench_federation_dispatch(traces, out_dir):
    single_trace, per_site = traces
    n_fed_jobs = sum(len(stream) for stream in per_site)

    single_s = timed_run(
        lambda: build_single(single_trace), lambda e, jobs: e.run(jobs)
    )
    policy_s = {
        policy: timed_run(
            lambda policy=policy: build_fed(per_site, policy),
            lambda e, streams: e.run(streams),
        )
        for policy in ("home", "least-loaded", "price-greedy")
    }

    single_us = single_s / FED_JOBS * 1e6
    fed_us = {p: s / n_fed_jobs * 1e6 for p, s in policy_s.items()}
    overhead = fed_us["home"] / single_us
    if overhead > MAX_OVERHEAD:
        # One noise-relief re-measure, keeping mins (shared runners).
        single_s = min(
            single_s,
            timed_run(lambda: build_single(single_trace), lambda e, j: e.run(j)),
        )
        policy_s["home"] = min(
            policy_s["home"],
            timed_run(lambda: build_fed(per_site, "home"), lambda e, s: e.run(s)),
        )
        single_us = single_s / FED_JOBS * 1e6
        fed_us["home"] = policy_s["home"] / n_fed_jobs * 1e6
        overhead = fed_us["home"] / single_us

    payload = {
        "m": M,
        "sites": SITES,
        "jobs": FED_JOBS,
        "single_cluster_us_per_job": round(single_us, 2),
        "federated_us_per_job": {p: round(v, 2) for p, v in fed_us.items()},
        "home_overhead_x": round(overhead, 3),
        # Instrumented pass: where each policy's per-job time goes.
        # Spans are self-time, so the phases of one policy sum to (at
        # most) its profiled wall time — decision cost is fed.route
        # (plus fed.state_view and qnet.train_step for drl), accounting
        # is site.settle, placement is site.dispatch.
        "phase_us": {
            policy: phase_breakdown(per_site, policy)
            for policy in ("home", "least-loaded", "price-greedy", "drl")
        },
    }
    merge_hotpath(out_dir, {"federation": payload})
    save_artifact(out_dir, "BENCH_federation.json", json.dumps(payload, indent=2))

    assert overhead <= MAX_OVERHEAD, (
        f"home-routed federation costs {overhead:.2f}x the single-cluster "
        f"dispatch per job (gate {MAX_OVERHEAD:.2f}x; fed "
        f"{fed_us['home']:.1f} us vs single {single_us:.1f} us); rerun on a "
        "quiet machine or set REPRO_BENCH_FED_MAX_OVERHEAD"
    )
