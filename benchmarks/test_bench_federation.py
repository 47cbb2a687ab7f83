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
overhead over the single cluster in the median round — pure engine
tax, no broker — at
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
from tests.helpers import interleaved, paired_ratio

FED_JOBS = int(os.environ.get("REPRO_BENCH_FED_JOBS", "1500"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_FED_MAX_OVERHEAD", "1.6"))

M, SITES = 30, 3
PER_SITE = M // SITES
HORIZON = FED_JOBS * 14.0
POLICIES = ("home", "least-loaded", "price-greedy")
# Nine rounds, as the hot-path bench takes: the median of three swung
# from under 1.1x to over 1.4x on a loaded host.
ROUNDS = 9

TOU = TariffModel.time_of_use(
    peak_start_hour=16.0, peak_end_hour=21.0, peak_price=0.32, offpeak_price=0.08
)


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


def run_arm(build):
    """An arm: ``build()`` a fresh engine and its jobs, then run it."""

    def setup():
        engine, streams = build()
        return lambda: engine.run(streams)

    return setup


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

    rounds = interleaved(
        {
            "single": run_arm(lambda: build_single(single_trace)),
            **{
                policy: run_arm(lambda policy=policy: build_fed(per_site, policy))
                for policy in POLICIES
            },
        },
        ROUNDS,
    )
    single_us = rounds.summary("single")["median"] / FED_JOBS * 1e6
    fed_us = {p: rounds.summary(p)["median"] / n_fed_jobs * 1e6 for p in POLICIES}
    overhead = paired_ratio(
        [s / n_fed_jobs for s in rounds.seconds["home"]],
        [s / FED_JOBS for s in rounds.seconds["single"]],
    )

    payload = {
        "m": M,
        "sites": SITES,
        "jobs": FED_JOBS,
        "single_cluster_us_per_job": round(single_us, 2),
        "federated_us_per_job": {p: round(v, 2) for p, v in fed_us.items()},
        "home_overhead_x": {key: round(v, 3) for key, v in overhead.items()},
        # Instrumented pass: where each policy's per-job time goes.
        # Spans are self-time, so the phases of one policy sum to (at
        # most) its profiled wall time — decision cost is fed.route
        # (plus fed.state_view and qnet.train_step for drl), accounting
        # is site.settle, placement is site.dispatch.
        "phase_us": {
            policy: phase_breakdown(per_site, policy)
            for policy in (*POLICIES, "drl")
        },
    }
    merge_hotpath(out_dir, {"federation": payload})
    save_artifact(out_dir, "BENCH_federation.json", json.dumps(payload, indent=2))

    assert overhead["median"] <= MAX_OVERHEAD, (
        f"home-routed federation costs {overhead['median']:.2f}x the "
        f"single-cluster dispatch per job in the median of {ROUNDS} rounds "
        f"(gate {MAX_OVERHEAD:.2f}x; fed {fed_us['home']:.1f} us vs single "
        f"{single_us:.1f} us); rerun on a quiet machine or set "
        "REPRO_BENCH_FED_MAX_OVERHEAD"
    )
