"""Fault spec validation and deterministic plan resolution."""

import dataclasses

import pytest

from repro.faults.plan import (
    SiteFaultPlan,
    build_site_plan,
    derive_fault_seed,
    scenario_fault_plans,
)
from repro.faults.spec import FaultSpec, SiteOutageSpec
from repro.scenarios.specs import (
    FleetSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
)

_SITE_FLEET = FleetSpec(classes=(ServerClassSpec("standard", 4),))


def federated(faults=None, site_faults=(None, None)):
    return ScenarioSpec(
        name="fed-faults",
        description="two-site fault test scenario",
        sites=(
            SiteSpec("a", _SITE_FLEET, faults=site_faults[0]),
            SiteSpec("b", _SITE_FLEET, faults=site_faults[1]),
        ),
        federation="least-loaded",
        faults=faults,
    )


class TestSpecValidation:
    def test_null_spec_is_null(self):
        assert FaultSpec().is_null()
        assert not FaultSpec(crashes_per_server=0.5).is_null()
        assert not FaultSpec(job_failure_prob=0.1).is_null()
        assert not FaultSpec(straggler_prob=0.1).is_null()
        assert not FaultSpec(
            site_outages=(SiteOutageSpec(0, 0.1, 0.1),)
        ).is_null()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crashes_per_server=-1.0),
            dict(crash_recovery_fraction=0.0),
            dict(crash_recovery_fraction=1.5),
            dict(job_failure_prob=1.5),
            dict(straggler_prob=-0.1),
            dict(straggler_factor=0.5),
            dict(max_retries=-1),
            dict(retry_backoff_s=0.0),
        ],
    )
    def test_bad_fault_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(site=-1, start_fraction=0.1, duration_fraction=0.1),
            dict(site=0, start_fraction=1.0, duration_fraction=0.1),
            dict(site=0, start_fraction=0.1, duration_fraction=0.0),
        ],
    )
    def test_bad_outage_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SiteOutageSpec(**kwargs)

    def test_site_level_outages_rejected(self):
        with pytest.raises(ValueError, match="site_outages"):
            SiteSpec(
                "a",
                _SITE_FLEET,
                faults=FaultSpec(site_outages=(SiteOutageSpec(0, 0.1, 0.1),)),
            )

    def test_outage_site_index_must_exist(self):
        faults = FaultSpec(site_outages=(SiteOutageSpec(5, 0.1, 0.1),))
        with pytest.raises(ValueError, match="site"):
            federated(faults=faults)
        with pytest.raises(ValueError, match="site"):
            ScenarioSpec(
                name="single", description="no sites", faults=faults
            )

    def test_faults_flow_into_content_key(self):
        plain = ScenarioSpec(name="x", description="d")
        faulted = dataclasses.replace(
            plain, faults=FaultSpec(job_failure_prob=0.1)
        )
        assert plain.content_dict() != faulted.content_dict()
        # Cosmetic rename never changes the key; a fault knob always does.
        renamed = dataclasses.replace(faulted, name="y")
        assert renamed.content_dict() == faulted.content_dict()


class TestPlans:
    def test_build_site_plan_deterministic(self):
        spec = FaultSpec(crashes_per_server=1.0)
        a = build_site_plan(spec, 4, 1000.0, seed=7)
        b = build_site_plan(spec, 4, 1000.0, seed=7)
        assert a == b
        assert build_site_plan(spec, 4, 1000.0, seed=8) != a

    def test_crash_times_sorted_and_in_horizon(self):
        plan = build_site_plan(
            FaultSpec(crashes_per_server=2.0), 6, 500.0, seed=0
        )
        times = [c.time for c in plan.crashes]
        assert times == sorted(times)
        assert all(0.0 <= t <= 500.0 for t in times)
        assert all(0 <= c.server_id < 6 for c in plan.crashes)

    def test_outage_expands_to_every_server(self):
        plan = build_site_plan(
            FaultSpec(), 3, 1000.0, seed=0, outages=((0.2, 0.1),)
        )
        assert len(plan.crashes) == 3
        assert {c.server_id for c in plan.crashes} == {0, 1, 2}
        assert all(c.time == 200.0 and c.recovery == 100.0 for c in plan.crashes)

    def test_fault_seed_is_independent_of_cell_seed_stream(self):
        assert derive_fault_seed(0) != 0
        assert derive_fault_seed(0) != derive_fault_seed(1)

    def test_scenario_without_faults_resolves_to_none(self):
        plain = ScenarioSpec(name="x", description="d")
        assert scenario_fault_plans(plain, 100, 0) is None
        nulled = dataclasses.replace(plain, faults=FaultSpec())
        assert scenario_fault_plans(nulled, 100, 0) is None
        assert scenario_fault_plans(federated(), 100, 0) is None

    def test_single_cluster_plan(self):
        spec = ScenarioSpec(
            name="x", description="d", faults=FaultSpec(crashes_per_server=1.0)
        )
        plans = scenario_fault_plans(spec, 100, 0)
        assert len(plans) == 1
        assert isinstance(plans[0], SiteFaultPlan)
        assert plans == scenario_fault_plans(spec, 100, 0)

    def test_one_site_federation_draws_the_plain_plan(self):
        spec = ScenarioSpec(
            name="x", description="d", faults=FaultSpec(crashes_per_server=1.0)
        )
        solo = dataclasses.replace(
            spec, sites=(SiteSpec("solo", spec.fleet, spec.tariff),)
        )
        for seed in (0, 3):
            plain = scenario_fault_plans(spec, 100, seed)
            assert scenario_fault_plans(solo, 100, seed) == plain

    def test_site_spec_overrides_scenario_spec(self):
        scen = FaultSpec(job_failure_prob=0.1)
        override = FaultSpec(job_failure_prob=0.5)
        spec = federated(faults=scen, site_faults=(override, None))
        plans = scenario_fault_plans(spec, 100, 0)
        assert plans[0].spec is override
        assert plans[1].spec is scen

    def test_outage_only_site_still_gets_a_plan(self):
        spec = federated(
            faults=FaultSpec(site_outages=(SiteOutageSpec(1, 0.3, 0.2),))
        )
        plans = scenario_fault_plans(spec, 100, 0)
        assert plans[0] is None  # outage targets site 1 only
        assert plans[1] is not None
        assert len(plans[1].crashes) == _SITE_FLEET.num_servers

    def test_per_site_seeds_differ(self):
        spec = federated(faults=FaultSpec(crashes_per_server=1.0))
        plans = scenario_fault_plans(spec, 100, 0)
        assert plans[0].seed != plans[1].seed
