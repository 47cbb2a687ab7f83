"""Resolve a :class:`FaultSpec` into a concrete, seeded fault plan.

A plan is the bridge between the declarative spec layer and the
engine-side runtime (:mod:`repro.faults.inject`): crash times are
drawn *here*, once, from seeds derived independently of the workload
and policy streams, so adding faults to a scenario never perturbs its
arrival process — and the same ``(spec, seed)`` pair always yields the
same schedule, which is what makes faulted cells content-keyable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.spec import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.specs import ScenarioSpec

#: Domain tags keeping fault randomness out of workload/policy streams.
_FAULT_DOMAIN = 0xFA17
_CRASH_DOMAIN = 0xC4A54


def derive_fault_seed(seed: int) -> int:
    """A fault-domain seed independent of workload/eval/policy seeds."""
    return int(np.random.SeedSequence((seed, _FAULT_DOMAIN)).generate_state(1)[0])


@dataclass(frozen=True)
class CrashEvent:
    """One unplanned server crash: down at ``time``, back ``recovery`` later."""

    time: float
    server_id: int
    recovery: float


@dataclass(frozen=True)
class SiteFaultPlan:
    """A fully-resolved fault schedule for one site.

    ``crashes`` covers both Poisson-drawn server crashes and expanded
    site outage windows; runtime per-job draws (failures, stragglers)
    use streams derived from ``seed`` at simulation time.
    """

    spec: FaultSpec
    seed: int
    crashes: tuple[CrashEvent, ...] = field(default_factory=tuple)


def build_site_plan(
    spec: FaultSpec,
    num_servers: int,
    horizon: float,
    seed: int,
    outages: tuple[tuple[float, float], ...] = (),
) -> SiteFaultPlan:
    """Draw the crash schedule for one site.

    ``outages`` are ``(start_fraction, duration_fraction)`` windows for
    *this* site; each expands to one crash per server so the whole site
    goes dark for the window.
    """
    crashes: list[CrashEvent] = []
    if spec.crashes_per_server > 0.0 and num_servers > 0:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _CRASH_DOMAIN)))
        recovery = spec.crash_recovery_fraction * horizon
        for server_id in range(num_servers):
            count = int(rng.poisson(spec.crashes_per_server))
            if count == 0:
                continue
            times = np.sort(rng.uniform(0.0, horizon, count))
            crashes.extend(
                CrashEvent(float(t), server_id, recovery) for t in times
            )
    for start_fraction, duration_fraction in outages:
        start = start_fraction * horizon
        duration = duration_fraction * horizon
        crashes.extend(
            CrashEvent(start, server_id, duration)
            for server_id in range(num_servers)
        )
    crashes.sort(key=lambda c: (c.time, c.server_id))
    return SiteFaultPlan(spec=spec, seed=seed, crashes=tuple(crashes))


def scenario_fault_plans(
    spec: "ScenarioSpec", n_jobs: int, seed: int
) -> list[SiteFaultPlan | None] | None:
    """Per-site fault plans for a scenario cell, or None when fault-free.

    One plan per site of :attr:`~repro.scenarios.specs.ScenarioSpec.site_specs`
    (a plain scenario is one implicit site); a site's own
    ``SiteSpec.faults`` overrides the scenario-level spec. Site outage
    windows always come from the scenario-level spec, which is the only
    place that can see every site index. Seeds follow
    :func:`~repro.scenarios.federation.derive_site_seeds`: a lone site
    takes :func:`derive_fault_seed` itself, so a one-site federation
    draws the plain scenario's faults; more sites spawn one child each.
    """
    horizon = spec.horizon_for(n_jobs)
    sites = spec.site_specs
    scenario_faults = spec.faults
    site_faults = [site.faults or scenario_faults for site in sites]
    outage_map: dict[int, list[tuple[float, float]]] = {}
    if scenario_faults is not None:
        for outage in scenario_faults.site_outages:
            outage_map.setdefault(outage.site, []).append(
                (outage.start_fraction, outage.duration_fraction)
            )
    if all(s is None or s.is_null() for s in site_faults) and not outage_map:
        return None
    fault_seed = derive_fault_seed(seed)
    if len(sites) == 1:
        site_seeds = [fault_seed]
    else:
        site_seeds = [
            int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(fault_seed).spawn(len(sites))
        ]
    plans: list[SiteFaultPlan | None] = []
    for index, (site, effective) in enumerate(zip(sites, site_faults)):
        outages = tuple(outage_map.get(index, ()))
        # Outage windows are scenario-level routing (they live in
        # ``outage_map``), so a spec that is null apart from outages
        # targeting *other* sites leaves this site fault-free.
        local_null = effective is None or replace(effective, site_outages=()).is_null()
        if local_null and not outages:
            plans.append(None)
            continue
        plans.append(
            build_site_plan(
                effective or FaultSpec(),
                site.fleet.num_servers,
                horizon,
                site_seeds[index],
                outages=outages,
            )
        )
    return plans
