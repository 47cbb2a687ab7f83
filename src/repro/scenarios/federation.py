"""Scenario cells: build, train or warm-start, and wire one fleet.

Every scenario cell is a federation: a plain scenario is one implicit
site (:attr:`~repro.scenarios.specs.ScenarioSpec.site_specs`), so one
path builds every cell. :func:`build_cell`

1. derives its seeds with
   :func:`~repro.harness.runner.derive_cell_seeds`, then one system
   seed per site plus one for the federation tier
   (:func:`derive_site_seeds`; a one-site fleet reuses the cell's
   system seed);
2. builds per-site home streams and training segments from the spec
   (:meth:`~repro.scenarios.specs.ScenarioSpec.build_site_traces` —
   correlated across sites; training segments only for a cell with
   policy weights, :func:`~repro.scenarios.checkpoints.needs_policy`);
3. builds one named cluster-tier system per site (each trained on its
   own segments, or built from that site's
   :class:`~repro.harness.runner.SitePolicy` in a
   :class:`~repro.scenarios.checkpoints.PolicyCheckpoint`);
4. builds the federation-tier dispatcher named by ``spec.federation``
   (training the DRL dispatcher over the training streams when cold,
   else restoring the checkpoint's dispatcher policy).

Steps 3 and 4 are :func:`build_controllers`, which checkpoint training
shares over the segments it has already built.

:func:`build_federation_engine` then maps each site's system to site
arguments (:meth:`~repro.core.hierarchical.HierarchicalSystem.site`)
and hands them, with the scenario's churn and faults, to
:func:`~repro.sim.federation.build_federation` — the one engine builder,
which puts every site on one event clock.
:func:`repro.scenarios.orchestrator.run_cell` runs the engine and
summarizes the fleet and each site with
:meth:`~repro.harness.runner.RunResult.from_run`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.federation import DRLFederationBroker, make_federation_broker
from repro.core.hierarchical import HierarchicalSystem
from repro.harness.runner import Protocol, derive_cell_seeds, make_system
from repro.scenarios.specs import ScenarioSpec
from repro.sim.churn import CapacityEvent
from repro.sim.federation import FederationEngine, build_federation
from repro.sim.interfaces import FederationBroker
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids an import cycle
    from repro.scenarios.checkpoints import PolicyCheckpoint


def derive_site_seeds(system_seed: int, n_sites: int) -> tuple[list[int], int]:
    """Per-site system seeds plus the federation-tier seed.

    A federation of one reuses ``system_seed`` itself for its only site
    — that keeps a one-site cell the bit-identical twin of the
    single-cluster experiment (:func:`~repro.harness.runner.make_system`
    seeded with the cell's system seed); multi-site federations spawn one
    independent child stream per site (adding a site never perturbs the
    others' controllers).
    """
    ss = np.random.SeedSequence(system_seed)
    if n_sites == 1:
        (fed_child,) = ss.spawn(1)
        return [system_seed], int(fed_child.generate_state(1)[0])
    *site_children, fed_child = ss.spawn(n_sites + 1)
    return (
        [int(child.generate_state(1)[0]) for child in site_children],
        int(fed_child.generate_state(1)[0]),
    )


def build_federation_engine(
    spec: ScenarioSpec,
    systems: Sequence[HierarchicalSystem],
    broker: FederationBroker | None,
    record_every: int,
    faults=None,
    capacity_events: Sequence[CapacityEvent] = (),
) -> FederationEngine:
    """A cell's evaluation engine over ``systems``.

    One :func:`~repro.sim.federation.build_federation` call builds new
    clusters (simulations are single-use) around the systems' live
    controllers (:meth:`~repro.core.hierarchical.HierarchicalSystem.site`),
    so the evaluation run continues the training passes' learned state.
    Each site carries its tariff and samples its series every
    ``record_every`` completions (a
    :class:`~repro.harness.runner.Protocol`'s). ``capacity_events`` is
    the evaluation's churn schedule; the spec admits churn only on a
    one-site fleet, so it targets the first site. ``faults`` is an
    optional per-site plan list
    (:func:`repro.faults.plan.scenario_fault_plans`).
    """
    sites = [
        system.site(
            name=site_spec.name, record_every=record_every, tariff=site_spec.tariff
        )
        for site_spec, system in zip(spec.site_specs, systems)
    ]
    sites[0]["capacity_events"] = capacity_events
    return build_federation(sites, broker, faults=faults)


def train_federation_broker(
    spec: ScenarioSpec,
    systems: Sequence[HierarchicalSystem],
    broker: FederationBroker | None,
    train_streams: Sequence[Sequence[list[Job]]],
    protocol: Protocol,
) -> None:
    """Online-train a learning federation dispatcher over the fleet.

    Runs the whole federation (the given per-site systems on new
    clusters, tariff-blind, no churn or faults; nothing reads the
    training runs' series) over every training segment
    ``protocol.online_epochs`` times; the DRL dispatcher accumulates
    fleet-level SMDP transitions and trains its Sub-Q network along the
    way, exactly like the cluster tier's online phase. Non-learning
    dispatchers make this a no-op.
    """
    if not isinstance(broker, DRLFederationBroker):
        return
    for _ in range(protocol.online_epochs):
        for segment_streams in train_streams:
            engine = build_federation(
                [
                    system.site(name=site_spec.name)
                    for site_spec, system in zip(spec.site_specs, systems)
                ],
                broker,
            )
            engine.run([[job.copy() for job in s] for s in segment_streams])


def build_cell(
    system: str,
    spec: ScenarioSpec,
    n_jobs: int,
    protocol: Protocol,
    seed: int = 0,
    checkpoint: "PolicyCheckpoint | None" = None,
) -> tuple[list[HierarchicalSystem], FederationBroker | None, list[list[Job]]]:
    """Build (and train or warm-start) everything one scenario cell needs.

    Returns ``(site_systems, federation_broker, eval_streams)`` ready
    for :func:`build_federation_engine` + run. Cold cells train under
    ``protocol``. With a ``checkpoint``, each site's DRL system and the
    DRL federation dispatcher start from the stored
    :class:`~repro.harness.runner.SitePolicy` objects instead of
    training in-cell.

    Raises
    ------
    ValueError
        If a ``checkpoint`` is given for a cell that trains no policy.
    """
    from repro.scenarios.checkpoints import needs_policy

    if checkpoint is not None and not needs_policy(spec, system):
        raise ValueError(
            f"system {system!r} on scenario {spec.name!r} has no policy "
            "to warm-start"
        )
    trace_ss, _ = derive_cell_seeds(seed)
    eval_streams, train_streams = spec.build_site_traces(
        n_jobs, trace_ss, with_training=needs_policy(spec, system)
    )
    systems, broker = build_controllers(
        system, spec, train_streams, protocol, seed, checkpoint
    )
    return systems, broker, eval_streams


def build_controllers(
    system: str,
    spec: ScenarioSpec,
    train_streams: Sequence[Sequence[list[Job]]],
    protocol: Protocol,
    seed: int,
    checkpoint: "PolicyCheckpoint | None" = None,
) -> tuple[list[HierarchicalSystem], FederationBroker | None]:
    """One cell's per-site systems and federation dispatcher, from built streams.

    The step :func:`build_cell` and
    :func:`~repro.scenarios.checkpoints.train_policy` share: seeds from
    the cell ``seed`` (:func:`derive_site_seeds`), one named system per
    site trained on its slice of ``train_streams`` (or built from the
    ``checkpoint``'s site policy), then the dispatcher named by
    ``spec.federation`` — the DRL one restored from ``checkpoint.fed``
    when the checkpoint carries it, else trained over ``train_streams``.
    """
    _, system_seed = derive_cell_seeds(seed)
    n_sites = len(spec.site_specs)
    site_seeds, fed_seed = derive_site_seeds(system_seed, n_sites)

    systems = [
        make_system(
            system,
            spec.site_experiment_config(i, seed=seed),
            [segment[i] for segment in train_streams],
            policy=None if checkpoint is None else checkpoint.sites[i],
            protocol=protocol,
            seed=site_seeds[i],
        )
        for i in range(n_sites)
    ]

    broker = make_federation_broker(
        spec.federation, n_sites, rng=np.random.default_rng(fed_seed)
    )
    if isinstance(broker, DRLFederationBroker):
        if checkpoint is not None and checkpoint.fed is not None:
            checkpoint.fed.restore(broker.qnet)
            broker.epsilon = checkpoint.fed.epsilon
        else:
            train_federation_broker(spec, systems, broker, train_streams, protocol)
    return systems, broker
