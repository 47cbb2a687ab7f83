"""One run summary: every ``RunResult`` field reaches every cell payload.

``run_cell`` summarizes the fleet and each site with
``RunResult.from_run`` and writes them through one serializer. These
tests pin where each field is stored, the exact key sets of a fleet
cell and a site entry, and that site entries add up to the fleet.
"""

from dataclasses import fields

import pytest

from repro.harness.runner import RunResult
from repro.scenarios.orchestrator import run_cell

#: The key each ``RunResult`` field is stored under in a cell dict.
STORED_KEYS = {
    "name": "system",
    "num_servers": "num_servers",
    "n_jobs": "n_jobs_completed",
    "energy_kwh": "energy_kwh",
    "acc_latency": "acc_latency_s",
    "mean_latency": "mean_latency_s",
    "average_power": "average_power_w",
    "final_time": "final_time_s",
    "latency_series": "latency_series",
    "energy_series": "energy_series",
    "cost_usd": "cost_usd",
    "co2_kg": "co2_kg",
    "cost_series": "cost_series",
    "co2_series": "co2_series",
    "failed_jobs": "failed_jobs",
    "retries": "retries",
    "goodput": "goodput",
    "availability": "availability",
    "broker_fallbacks": "broker_fallbacks",
}
#: Fields only the fleet stores; a site entry carries every other one.
FLEET_ONLY = ("name", "final_time", "broker_fallbacks")
#: Keys a fleet cell adds around its record (a federated one).
FLEET_EXTRA = {
    "scenario",
    "seed",
    "n_jobs_offered",
    "energy_per_job_wh",
    "capacity_events",
    "federation",
    "sites",
}
#: Keys a site entry adds around its record.
SITE_EXTRA = {"site", "n_jobs_home"}


def stored(value):
    """A field as the JSON payload holds it: series pairs become lists."""
    return [list(pair) for pair in value] if isinstance(value, tuple) else value


@pytest.fixture(scope="module")
def recorded():
    """A faulted federated cell plus the records ``run_cell`` built for it."""
    built = []
    from_run = RunResult.from_run.__func__

    def spy(cls, *args, **kwargs):
        run = from_run(cls, *args, **kwargs)
        built.append(run)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunResult, "from_run", classmethod(spy))
        cell = run_cell("degraded-federation", "round-robin", n_jobs=120, seed=0)
    fleet, *sites = built
    assert len(sites) == len(cell["sites"])
    return cell, fleet, sites


@pytest.mark.parametrize("field", [f.name for f in fields(RunResult)])
def test_every_field_is_stored_under_its_key(field, recorded):
    cell, fleet, sites = recorded
    assert field in STORED_KEYS, f"RunResult.{field} has no stored key"
    key = STORED_KEYS[field]
    assert cell[key] == stored(getattr(fleet, field)), key
    for entry, run in zip(cell["sites"], sites):
        if field in FLEET_ONLY:
            assert key not in entry, key
        else:
            assert entry[key] == stored(getattr(run, field)), (entry["site"], key)


def test_payloads_keep_their_key_sets(recorded):
    cell, _, _ = recorded
    assert set(cell) == set(STORED_KEYS.values()) | FLEET_EXTRA
    site_keys = {STORED_KEYS[f] for f in STORED_KEYS if f not in FLEET_ONLY}
    for entry in cell["sites"]:
        assert set(entry) == site_keys | SITE_EXTRA


#: Totals a fleet cell sums from its sites, in site order.
SUMMED = (
    "n_jobs_completed",
    "num_servers",
    "failed_jobs",
    "retries",
    "energy_kwh",
    "acc_latency_s",
    "cost_usd",
    "co2_kg",
)


@pytest.mark.parametrize("system", ["round-robin", "packing"])
@pytest.mark.parametrize(
    "scenario", ["federated-correlated", "follow-the-sun", "degraded-federation"]
)
def test_site_entries_sum_to_the_fleet(scenario, system):
    cell = run_cell(scenario, system, n_jobs=120, seed=0)
    for key in SUMMED:
        assert sum(site[key] for site in cell["sites"]) == cell[key], key
