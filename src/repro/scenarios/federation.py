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
   own segments, or warm-started from a
   :class:`~repro.scenarios.checkpoints.PolicyCheckpoint`);
4. builds the federation-tier dispatcher named by ``spec.federation``
   (training the DRL dispatcher over the training streams when cold).

:func:`build_federation_engine` then maps each site's system to site
arguments (:meth:`~repro.core.hierarchical.HierarchicalSystem.site`)
and hands them, with the scenario's churn and faults, to
:func:`~repro.sim.federation.build_federation` — the one engine builder,
which puts every site on one event clock.
:func:`repro.scenarios.orchestrator.run_cell` runs the engine and
flattens the result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.federation import DRLFederationBroker, make_federation_broker
from repro.core.hierarchical import HierarchicalSystem
from repro.harness.runner import derive_cell_seeds, make_system, needs_global_tier
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
    record_every: int = 200,
    with_tariffs: bool = True,
    faults=None,
    capacity_events: Sequence[CapacityEvent] = (),
) -> FederationEngine:
    """One :func:`~repro.sim.federation.build_federation` call over ``systems``.

    Every call builds new clusters (simulations are single-use) around
    the systems' live controllers
    (:meth:`~repro.core.hierarchical.HierarchicalSystem.site`), so
    training passes and the evaluation run reuse the same learned state.
    ``with_tariffs=False`` builds the tariff-blind engines training
    uses. ``capacity_events`` is the evaluation's churn schedule; the
    spec admits churn only on a one-site fleet, so it targets the first
    site. ``faults`` is an optional per-site plan list
    (:func:`repro.faults.plan.scenario_fault_plans`); training engines
    carry neither.
    """
    sites = [
        system.site(
            name=site_spec.name,
            record_every=record_every,
            tariff=site_spec.tariff if with_tariffs else None,
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
    online_epochs: int = 1,
) -> None:
    """Online-train a learning federation dispatcher over the fleet.

    Runs the whole federation (the given per-site systems, tariff-blind)
    over every training segment ``online_epochs`` times; the DRL
    dispatcher accumulates fleet-level SMDP transitions and trains its
    Sub-Q network along the way, exactly like the cluster tier's online
    phase. Non-learning dispatchers make this a no-op.
    """
    if not isinstance(broker, DRLFederationBroker):
        return
    for _ in range(online_epochs):
        for segment_streams in train_streams:
            engine = build_federation_engine(
                spec, systems, broker, with_tariffs=False
            )
            engine.run([[job.copy() for job in s] for s in segment_streams])


def build_cell(
    system: str,
    spec: ScenarioSpec,
    n_jobs: int,
    seed: int = 0,
    pretrain: bool = True,
    online_epochs: int = 1,
    local_epochs: int = 1,
    checkpoint: "PolicyCheckpoint | None" = None,
) -> tuple[list[HierarchicalSystem], FederationBroker | None, list[list[Job]]]:
    """Build (and train or warm-start) everything one scenario cell needs.

    Returns ``(site_systems, federation_broker, eval_streams)`` ready
    for :func:`build_federation_engine` + run. With a ``checkpoint``,
    per-site DRL prototypes/predictors and the DRL federation dispatcher
    are restored from the stored weights instead of trained in-cell.

    Raises
    ------
    ValueError
        If a ``checkpoint`` is given for a cell that trains no policy.
    """
    from repro.scenarios.checkpoints import (
        needs_policy,
        restore_predictor,
        restore_prototype,
    )

    if checkpoint is not None and not needs_policy(spec, system):
        raise ValueError(
            f"system {system!r} on scenario {spec.name!r} has no policy "
            "to warm-start"
        )
    trace_ss, system_seed = derive_cell_seeds(seed)
    eval_streams, train_streams = spec.build_site_traces(
        n_jobs, trace_ss, with_training=needs_policy(spec, system)
    )
    n_sites = len(spec.site_specs)
    site_seeds, fed_seed = derive_site_seeds(system_seed, n_sites)

    systems: list[HierarchicalSystem] = []
    for i in range(n_sites):
        config = spec.site_experiment_config(i, seed=seed)
        site_train = [segment[i] for segment in train_streams]
        make_kwargs: dict = {}
        if checkpoint is not None and needs_global_tier(system):
            site_policy = checkpoint.sites[i]
            make_kwargs["global_prototype"] = restore_prototype(
                site_policy, config, site_seeds[i]
            )
            if system == "hierarchical":
                make_kwargs["predictor"] = restore_predictor(
                    site_policy, config, site_seeds[i]
                )
        systems.append(
            make_system(
                system,
                config,
                site_train,
                seed=site_seeds[i],
                pretrain=pretrain,
                online_epochs=online_epochs,
                local_epochs=local_epochs,
                **make_kwargs,
            )
        )

    broker = make_federation_broker(
        spec.federation, n_sites, rng=np.random.default_rng(fed_seed)
    )
    if isinstance(broker, DRLFederationBroker):
        if checkpoint is not None and checkpoint.fed_qnet_state is not None:
            fed_arch = checkpoint.meta.get("fed_arch")
            if fed_arch is not None and fed_arch != broker.qnet.describe():
                raise ValueError(
                    "federation checkpoint geometry does not match the "
                    f"scenario: blob carries {fed_arch}, scenario needs "
                    f"{broker.qnet.describe()}"
                )
            broker.qnet.load_state_dict(checkpoint.fed_qnet_state)
            broker.epsilon = checkpoint.fed_epsilon
        else:
            train_federation_broker(
                spec, systems, broker, train_streams, online_epochs=online_epochs
            )
    return systems, broker, eval_streams
