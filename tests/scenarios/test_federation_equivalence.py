"""Federation-of-one equivalence: the refactor's safety net.

A federated cell with a single site must be the *identical experiment*
to the single-cluster cell — bit-identical metrics, not approximately
equal — across builtin scenarios (synthetic, tariffed, trace-replay and
faulted workloads) and across systems including the DRL global tier. This is
what licenses routing everything through the federation engine.

Plain cells run as one-site federations too, so the last test pins them
to an oracle: the single-cluster path (``make_system`` on
``spec.build_traces``, then one site ``cluster`` with the spec's churn,
tariff and fault plan, summarized by ``RunResult.from_run``) assembled
here, outside the cell pipeline.
"""

from dataclasses import replace

import pytest

from repro.faults.plan import scenario_fault_plans
from repro.harness.runner import SWEEP_PROTOCOL, derive_cell_seeds, make_system
from repro.scenarios import registry
from repro.scenarios.builtin import BUILTIN_SCENARIOS
from repro.scenarios.orchestrator import run_cell
from repro.scenarios.specs import SiteSpec
from tests.helpers import run_cluster

#: Metrics that must match exactly (totals, intensive stats, and every
#: sampled series point).
EXACT_KEYS = (
    "n_jobs_offered",
    "n_jobs_completed",
    "num_servers",
    "energy_kwh",
    "acc_latency_s",
    "mean_latency_s",
    "average_power_w",
    "energy_per_job_wh",
    "final_time_s",
    "cost_usd",
    "co2_kg",
    "latency_series",
    "energy_series",
    "cost_series",
    "co2_series",
    "failed_jobs",
    "retries",
    "goodput",
    "availability",
    "broker_fallbacks",
)

#: >= 3 builtin scenarios covering synthetic (paper-default), tariffed
#: synthetic (tou-price-shift), trace replay (google-replay), and fault
#: injection (failure-storm: the lone site draws the plain cell's faults).
SCENARIOS = ("paper-default", "tou-price-shift", "google-replay", "failure-storm")

#: A static baseline, a sleeping baseline, and the DRL global tier
#: (untrained here — online learning still runs through the evaluation,
#: exercising the seeded RNG path end to end).
SYSTEMS = ("round-robin", "packing", "drl-only")

#: The sweep protocol without global-tier training: the DRL tier starts
#: from its initial weights.
UNTRAINED = replace(SWEEP_PROTOCOL, pretrain=False, online_epochs=0)


def federation_of_one(spec):
    """The spec as a single-site federation (same fleet, same tariff)."""
    return replace(
        spec,
        name=f"{spec.name}-as-federation",
        sites=(SiteSpec("solo", fleet=spec.fleet, tariff=spec.tariff),),
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_single_site_federation_is_bit_identical(scenario, system):
    spec = registry.get(scenario)
    kwargs = dict(n_jobs=120, seed=3, protocol=UNTRAINED)
    single = run_cell(spec, system, **kwargs)
    federated = run_cell(federation_of_one(spec), system, **kwargs)
    for key in EXACT_KEYS:
        assert single[key] == federated[key], key
    # The federated result additionally breaks the same numbers out
    # per site — for one site, the breakdown IS the fleet.
    (site,) = federated["sites"]
    assert site["energy_kwh"] == single["energy_kwh"]
    assert site["cost_usd"] == single["cost_usd"]
    assert site["co2_kg"] == single["co2_kg"]
    assert site["latency_series"] == single["latency_series"]


def test_single_site_federation_traces_match_single_cluster():
    # The trace builder itself must hand a one-site federation the exact
    # single-cluster streams (same jobs, same training segments).
    spec = registry.get("paper-default")
    fed = federation_of_one(spec)
    eval_jobs, segments = spec.build_traces(200, seed=7)
    eval_streams, train_streams = fed.build_site_traces(200, seed=7)
    assert eval_streams == [eval_jobs]
    assert train_streams == [[segment] for segment in segments]


def test_warm_started_single_site_federation_stays_identical(tmp_path):
    # Warm starting goes through a different construction path
    # (checkpoint restore) on both sides; equivalence must survive it.
    from repro.scenarios.checkpoints import CheckpointStore, ensure_checkpoint

    spec = registry.get("paper-default")
    fed = federation_of_one(spec)
    kwargs = dict(n_jobs=100, seed=1, protocol=SWEEP_PROTOCOL)
    single_ckpt = ensure_checkpoint(
        CheckpointStore(tmp_path / "single"), spec, **kwargs, with_predictor=False
    )
    fed_ckpt = ensure_checkpoint(
        CheckpointStore(tmp_path / "fed"), fed, **kwargs, with_predictor=False
    )
    single = run_cell(spec, "drl-only", checkpoint=single_ckpt, **kwargs)
    federated = run_cell(fed, "drl-only", checkpoint=fed_ckpt, **kwargs)
    for key in EXACT_KEYS:
        assert single[key] == federated[key], key


def single_cluster_reference(spec, system, n_jobs, seed, protocol):
    """The cell as the single-cluster harness runs it: one engine, no sites."""
    trace_ss, system_seed = derive_cell_seeds(seed)
    eval_jobs, train_traces = spec.build_traces(n_jobs, trace_ss)
    built = make_system(
        system,
        spec.site_experiment_config(0, seed=seed),
        train_traces,
        seed=system_seed,
        protocol=protocol,
    )
    plans = scenario_fault_plans(spec, n_jobs, seed)
    return run_cluster(
        built,
        eval_jobs,
        protocol,
        capacity_events=spec.capacity_events(spec.horizon_for(n_jobs)),
        tariff=spec.tariff,
        faults=plans[0] if plans else None,
    )


#: Every plain builtin under each system, plus one cell carrying churn
#: and faults together (the engine schedules churn before faults).
PLAIN_CELLS = [
    pytest.param(spec, system, id=f"{spec.name}-{system}")
    for spec in BUILTIN_SCENARIOS
    if not spec.sites
    for system in SYSTEMS
] + [
    pytest.param(
        replace(
            registry.get("failure-storm"),
            name="failure-storm-churned",
            capacity_windows=registry.get("maintenance-churn").capacity_windows,
        ),
        "drl-only",
        id="failure-storm-churned-drl-only",
    )
]


@pytest.mark.parametrize("spec, system", PLAIN_CELLS)
def test_plain_cell_matches_the_single_cluster_path(spec, system):
    kwargs = dict(n_jobs=120, seed=3, protocol=UNTRAINED)
    cell = run_cell(spec, system, **kwargs)
    ref = single_cluster_reference(spec, system, **kwargs)
    assert cell["n_jobs_completed"] == ref.n_jobs
    assert cell["energy_kwh"] == ref.energy_kwh
    assert cell["acc_latency_s"] == ref.acc_latency
    assert cell["mean_latency_s"] == ref.mean_latency
    assert cell["average_power_w"] == ref.average_power
    assert cell["final_time_s"] == ref.final_time
    assert cell["cost_usd"] == ref.cost_usd
    assert cell["co2_kg"] == ref.co2_kg
    assert cell["failed_jobs"] == ref.failed_jobs
    assert cell["retries"] == ref.retries
    assert cell["availability"] == ref.availability
    assert cell["latency_series"] == [[n, v] for n, v in ref.latency_series]
    assert cell["energy_series"] == [[n, v] for n, v in ref.energy_series]
    assert "sites" not in cell
