"""The builtin scenario suite.

Fourteen scenarios spanning the axes the ROADMAP cares about: the
paper's own setup, stronger diurnal swings, flash crowds, a
mixed-efficiency fleet, rolling maintenance churn, a high-load
two-tenant mix, real Google-trace replay, carbon- and price-aware
electricity accounting, a correlated (coincident-peak) tenant fleet,
two *federated* multi-site scenarios (correlated regional streams under
least-loaded dispatch, and follow-the-sun price-greedy dispatch across
shifted time-of-use tariffs), and two *faulted* scenarios exercising
:mod:`repro.faults` (a single-cluster failure storm, and a federation
degraded by site outage windows). Each is a pure parameterization of
:class:`~repro.scenarios.specs.ScenarioSpec`; importing this module
registers all of them.

Workload parameters deliberately stay within the generator's calibrated
envelope (durations clipped to [1 min, 2 h], Beta resource demands) so
every scenario remains a plausible Google-like segment rather than a
synthetic stress toy — except where the scenario's entire point is
stress (``flash-crowd``, ``tenant-mix``, ``correlated-fleet``).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.faults.spec import FaultSpec, SiteOutageSpec
from repro.scenarios.registry import register
from repro.scenarios.specs import (
    FleetSpec,
    FlashCrowdSpec,
    JobClassSpec,
    ScenarioSpec,
    ServerClassSpec,
    SiteSpec,
    TraceReplaySpec,
    WorkloadSpec,
    rolling_maintenance,
)
from repro.sim.power import PowerModel, TariffModel
from repro.workload.synthetic import SyntheticTraceConfig

_BASE = SyntheticTraceConfig()

#: Mixed-generation fleet: newer machines idle lower and wake faster;
#: legacy machines pay more at every utilization.
EFFICIENT_POWER = PowerModel(idle_power=55.0, peak_power=118.0, t_on=20.0, t_off=20.0)
STANDARD_POWER = PowerModel()  # the paper's 87 W / 145 W server
LEGACY_POWER = PowerModel(idle_power=112.0, peak_power=188.0, t_on=45.0, t_off=45.0)


PAPER_DEFAULT = register(
    ScenarioSpec(
        name="paper-default",
        description="The paper's setup: one Google-like stream, 30 homogeneous servers",
    )
)

DIURNAL_HEAVY = register(
    ScenarioSpec(
        name="diurnal-heavy",
        description="Near-full day/night swing; rewards aggressive off-peak sleeping",
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "diurnal",
                    1.0,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.85,
                        burst_rate_multiplier=1.5,
                    ),
                ),
            ),
        ),
    )
)

FLASH_CROWD = register(
    ScenarioSpec(
        name="flash-crowd",
        description="Two uncorrelated arrival spikes (6x and 4x) over a calm baseline",
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "baseline",
                    1.0,
                    replace(_BASE, diurnal_amplitude=0.3, burst_rate_multiplier=1.5),
                ),
            ),
            flash_crowds=(
                FlashCrowdSpec(
                    start_fraction=0.2, duration_fraction=0.05, rate_multiplier=6.0
                ),
                FlashCrowdSpec(
                    start_fraction=0.6, duration_fraction=0.08, rate_multiplier=4.0
                ),
            ),
        ),
    )
)

HETERO_FLEET = register(
    ScenarioSpec(
        name="hetero-fleet",
        description="Mixed fleet: 10 efficient, 10 standard, 10 legacy power profiles",
        fleet=FleetSpec(
            classes=(
                ServerClassSpec("efficient", 10, EFFICIENT_POWER),
                ServerClassSpec("standard", 10, STANDARD_POWER),
                ServerClassSpec("legacy", 10, LEGACY_POWER),
            ),
        ),
    )
)

MAINTENANCE_CHURN = register(
    ScenarioSpec(
        name="maintenance-churn",
        description="Rolling maintenance: 5 staggered waves each draining 3 servers",
        capacity_windows=rolling_maintenance(
            num_servers=30, group_size=3, n_waves=5
        ),
    )
)

TENANT_MIX = register(
    ScenarioSpec(
        name="tenant-mix",
        description=(
            "High-load mix: diurnal interactive tenant over a bursty "
            "batch tenant"
        ),
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "interactive",
                    0.65,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.6,
                        burst_rate_multiplier=1.5,
                        duration_median=120.0,
                        duration_sigma=0.8,
                        cpu_scale=0.3,
                        mem_scale=0.25,
                        disk_scale=0.15,
                    ),
                ),
                JobClassSpec(
                    "batch",
                    0.35,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.15,
                        burst_rate_multiplier=4.0,
                        burst_on_mean=1_800.0,
                        duration_median=1_500.0,
                        duration_sigma=0.7,
                        cpu_scale=0.7,
                        mem_scale=0.6,
                        disk_scale=0.5,
                        correlation=0.8,
                    ),
                ),
            ),
            rate_scale=1.2,
        ),
    )
)

#: Bundled Google-format fixture, package data beside this module, so
#: the default ``google-replay`` scenario — and therefore a default
#: ``scenario sweep`` over every registered scenario — works from any
#: working directory and from a copy that holds only ``src/``.
#: ``scenario run --trace`` points the same scenario at real
#: cluster-usage part files.
FIXTURE_TRACE = str(Path(__file__).resolve().with_name("google_task_events_small.csv"))

GOOGLE_REPLAY = register(
    ScenarioSpec(
        name="google-replay",
        description=(
            "Replay Google task-events CSVs (bundled fixture; --trace "
            "swaps in real files)"
        ),
        workload=WorkloadSpec(
            replay=TraceReplaySpec(paths=(FIXTURE_TRACE,)),
            train_fraction=0.5,
            n_train_segments=1,
        ),
        tariff=TariffModel(),  # flat tariff: cost/CO₂ series track energy
    )
)

#: A stylized grid-intensity day: clean overnight wind, a midday solar
#: dip, and a dirty evening ramp (values bracket typical gCO₂/kWh mixes).
CARBON_CURVE = (
    (0.0, 6 * 3600.0, 180.0),
    (11 * 3600.0, 15 * 3600.0, 240.0),
    (17 * 3600.0, 22 * 3600.0, 540.0),
)

CARBON_AWARE_DIURNAL = register(
    ScenarioSpec(
        name="carbon-aware-diurnal",
        description=(
            "Diurnal swing against a daily grid carbon curve (clean "
            "nights, dirty evening ramp)"
        ),
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "diurnal",
                    1.0,
                    replace(_BASE, diurnal_amplitude=0.7, burst_rate_multiplier=2.0),
                ),
            ),
        ),
        tariff=TariffModel(carbon=420.0, carbon_windows=CARBON_CURVE),
    )
)

TOU_PRICE_SHIFT = register(
    ScenarioSpec(
        name="tou-price-shift",
        description=(
            "Time-of-use pricing: 4x peak tariff 16-21h over the "
            "paper's workload"
        ),
        tariff=TariffModel.time_of_use(
            peak_start_hour=16.0,
            peak_end_hour=21.0,
            peak_price=0.32,
            offpeak_price=0.08,
        ),
    )
)

CORRELATED_FLEET = register(
    ScenarioSpec(
        name="correlated-fleet",
        description=(
            "Two bursty tenants fully burst-coupled: every peak lands "
            "on the same minutes"
        ),
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "region-a",
                    0.5,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.5,
                        burst_rate_multiplier=4.0,
                        burst_on_mean=900.0,
                    ),
                ),
                JobClassSpec(
                    "region-b",
                    0.5,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.5,
                        burst_rate_multiplier=4.0,
                        burst_on_mean=900.0,
                        duration_median=450.0,
                        cpu_scale=0.6,
                    ),
                ),
            ),
            burst_coupling=1.0,
            rate_scale=1.1,
        ),
    )
)

#: A compact 10-server site fleet (groups_for(10) = 2) reused by the
#: federated scenarios; three of them match the paper's 30 servers.
_SITE_FLEET = FleetSpec(classes=(ServerClassSpec("standard", 10),))

FEDERATED_CORRELATED = register(
    ScenarioSpec(
        name="federated-correlated",
        description=(
            "Three-site federation under fully burst-coupled regional "
            "streams; least-loaded cross-site dispatch"
        ),
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "regional",
                    1.0,
                    replace(
                        _BASE,
                        diurnal_amplitude=0.5,
                        burst_rate_multiplier=3.0,
                        burst_on_mean=900.0,
                    ),
                ),
            ),
            burst_coupling=1.0,
        ),
        sites=(
            # One grid per site: hydro-heavy, mixed-fossil, coal-heavy —
            # identical fleets, so differences are pure dispatch.
            SiteSpec("hydro", _SITE_FLEET, tariff=TariffModel(carbon=120.0)),
            SiteSpec("mixed", _SITE_FLEET, tariff=TariffModel(carbon=420.0)),
            SiteSpec("coal", _SITE_FLEET, tariff=TariffModel(carbon=760.0)),
        ),
        federation="least-loaded",
    )
)

#: One time-of-use plan, read in three time zones (8 h apart): each
#: site's peak window lands at a different absolute simulation time, so
#: somewhere in the federation it is always off-peak.
_TOU = TariffModel.time_of_use(
    peak_start_hour=16.0,
    peak_end_hour=21.0,
    peak_price=0.32,
    offpeak_price=0.08,
)

FOLLOW_THE_SUN = register(
    ScenarioSpec(
        name="follow-the-sun",
        description=(
            "Three time zones, shifted time-of-use tariffs; "
            "price-greedy dispatch chases the off-peak site"
        ),
        workload=WorkloadSpec(
            classes=(
                JobClassSpec(
                    "diurnal",
                    1.0,
                    replace(_BASE, diurnal_amplitude=0.6, burst_rate_multiplier=2.0),
                ),
            ),
        ),
        sites=(
            SiteSpec("apac", _SITE_FLEET, tariff=_TOU.shifted(-8 * 3600.0)),
            SiteSpec("emea", _SITE_FLEET, tariff=_TOU),
            SiteSpec("amer", _SITE_FLEET, tariff=_TOU.shifted(8 * 3600.0)),
        ),
        federation="price-greedy",
    )
)

FAILURE_STORM = register(
    ScenarioSpec(
        name="failure-storm",
        description=(
            "The paper's cluster under unplanned fire: crashes, flaky "
            "jobs, and stragglers"
        ),
        faults=FaultSpec(
            crashes_per_server=1.5,
            crash_recovery_fraction=0.04,
            job_failure_prob=0.05,
            straggler_prob=0.05,
            straggler_factor=3.0,
            max_retries=3,
            retry_backoff_s=60.0,
        ),
    )
)

DEGRADED_FEDERATION = register(
    ScenarioSpec(
        name="degraded-federation",
        description=(
            "Three-site federation losing whole sites to staggered "
            "outage windows; flaky jobs throughout"
        ),
        sites=(
            # Same grid spread as federated-correlated so dashboards can
            # compare the healthy and degraded fleets like-for-like.
            SiteSpec("hydro", _SITE_FLEET, tariff=TariffModel(carbon=120.0)),
            SiteSpec("mixed", _SITE_FLEET, tariff=TariffModel(carbon=420.0)),
            SiteSpec("coal", _SITE_FLEET, tariff=TariffModel(carbon=760.0)),
        ),
        federation="least-loaded",
        faults=FaultSpec(
            job_failure_prob=0.02,
            max_retries=3,
            retry_backoff_s=60.0,
            site_outages=(
                SiteOutageSpec(site=0, start_fraction=0.25, duration_fraction=0.12),
                SiteOutageSpec(site=1, start_fraction=0.55, duration_fraction=0.12),
            ),
        ),
    )
)

#: The fourteen stock scenarios, in catalog order.
BUILTIN_SCENARIOS = (
    PAPER_DEFAULT,
    DIURNAL_HEAVY,
    FLASH_CROWD,
    HETERO_FLEET,
    MAINTENANCE_CHURN,
    TENANT_MIX,
    GOOGLE_REPLAY,
    CARBON_AWARE_DIURNAL,
    TOU_PRICE_SHIFT,
    CORRELATED_FLEET,
    FEDERATED_CORRELATED,
    FOLLOW_THE_SUN,
    FAILURE_STORM,
    DEGRADED_FEDERATION,
)
